/**
 * @file
 * Set-associative cache with MOESI line states and LRU replacement.
 *
 * Used as both the ThunderX-1 L2 model on the CPU node and an
 * (optional) line cache on the FPGA node. The cache is a state +
 * data container; the protocol engines (eci::HomeAgent /
 * eci::RemoteAgent) drive its transitions.
 *
 * Storage follows the simulated footprint, not the modelled capacity:
 * each set's frames are allocated on its first fill, so a 16 MiB L2
 * that saw a few hundred lines costs a few hundred frame blocks.
 */

#ifndef ENZIAN_CACHE_CACHE_HH
#define ENZIAN_CACHE_CACHE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "base/stats.hh"
#include "cache/llc_policy.hh"
#include "cache/moesi.hh"
#include "sim/sim_object.hh"

namespace enzian::cache {

/** The bytes of one cache line, stored inline. */
using LineData = std::array<std::uint8_t, lineSize>;

/**
 * One line frame: tag, state, data, LRU bookkeeping. `state` alone
 * decides validity; an Invalid frame's data is stale and never read.
 */
struct LineFrame
{
    std::uint64_t tag = 0;
    MoesiState state = MoesiState::Invalid;
    std::uint64_t lastUse = 0;
    LineData data;

    bool valid() const { return state != MoesiState::Invalid; }
};

/** A victim produced by an allocation. */
struct Eviction
{
    std::uint64_t addr;
    MoesiState state;
    LineData data;
};

/** Set-associative MOESI cache. */
class Cache : public SimObject
{
  public:
    /** Geometry and policy configuration. */
    struct Config
    {
        std::uint64_t size_bytes = 16 * 1024 * 1024; // ThunderX-1 L2
        std::uint32_t ways = 16;
        /** Victim selection: Lru ignores owners entirely;
         *  WayPartition / Adaptive restrict each fill's victim to
         *  the ways owned by the filling class (llc_policy.hh). */
        ReplPolicy policy = ReplPolicy::Lru;
        /** Owner classes when partitioned (0 = local, 1 = remote). */
        std::uint32_t partitions = 2;
        /** Adaptive epoch length in misses. */
        std::uint64_t adapt_epoch = 1024;
    };

    Cache(std::string name, EventQueue &eq, const Config &cfg);

    /** Lookup without side effects. @return frame state (I if absent). */
    MoesiState probe(Addr addr) const;

    /**
     * Lookup for access; bumps LRU on hit.
     * @return pointer to the frame, or nullptr on miss.
     */
    LineFrame *access(Addr addr);

    /**
     * Install a line with @p state and @p data (lineSize bytes).
     * Under a partitioned policy the victim is chosen among the ways
     * owned by @p owner; lookups are unrestricted, so foreign-owned
     * residents simply age out.
     * @return the victim line if a valid line had to be evicted.
     */
    std::optional<Eviction> fill(Addr addr, MoesiState state,
                                 const std::uint8_t *data,
                                 std::uint32_t owner = 0);

    /**
     * True when a fill of @p addr by @p owner would find an invalid
     * frame (i.e. would not evict a valid line). Lets callers that
     * cannot handle an Eviction allocate opportunistically.
     */
    bool hasFreeFrame(Addr addr, std::uint32_t owner = 0) const;

    /** Change the state of a resident line. @pre line is resident. */
    void setState(Addr addr, MoesiState state);

    /** Drop a line (e.g. on invalidation). @return its data if dirty. */
    std::optional<Eviction> invalidate(Addr addr);

    /** Read @p len bytes at @p addr from a resident line. */
    void readData(Addr addr, void *dst, std::uint32_t len) const;

    /** Write @p len bytes at @p addr into a resident line. */
    void writeData(Addr addr, const void *src, std::uint32_t len);

    /** Walk all valid lines (for writeback flushes and checkers). */
    void forEachLine(
        const std::function<void(Addr, const LineFrame &)> &fn) const;

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return cfg_.ways; }

    /**
     * Sets whose frames have been allocated (by a first fill). A
     * host-side footprint, deliberately not a registry stat.
     */
    std::uint32_t allocatedSets() const;

    /** The way allocator, or nullptr under plain LRU. */
    const WayAllocator *allocator() const { return alloc_.get(); }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

  private:
    std::uint32_t setIndex(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;
    const LineFrame *find(Addr addr) const;
    LineFrame *find(Addr addr);

    Config cfg_;
    std::uint32_t sets_;
    std::uint64_t useClock_ = 0;
    /** Per set, `ways` frames allocated on the set's first fill; a
     *  null set reads as all-Invalid. */
    std::vector<std::unique_ptr<LineFrame[]>> frames_;
    std::unique_ptr<WayAllocator> alloc_; // null under plain LRU
    Counter hits_;
    Counter misses_;
    Counter evictions_;
};

} // namespace enzian::cache

#endif // ENZIAN_CACHE_CACHE_HH
