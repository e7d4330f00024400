/**
 * @file
 * Set-associative cache with MOESI line states and LRU replacement.
 *
 * Used as both the ThunderX-1 L2 model on the CPU node and an
 * (optional) line cache on the FPGA node. The cache is a state +
 * data container; the protocol engines (eci::HomeAgent /
 * eci::RemoteAgent) drive its transitions.
 *
 * The layout is flat, one array per field indexed by set and way:
 * tags, states and LRU stamps are set-major, so a 16-way tag search
 * reads 128 contiguous bytes (two host cache lines), and line data is
 * way-major in an array of its own, so a sequential stream fills
 * contiguous bytes of way 0. Every array lives in pages the OS
 * zero-fills on first touch (base/zeroed_array.hh): a 16 MiB L2 that
 * saw a few hundred lines costs a few hundred lines' worth of pages,
 * and a list of the sets a fill touched keeps whole-cache walks
 * proportional to that footprint.
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
#include "base/zeroed_array.hh"
#include "cache/llc_policy.hh"
#include "cache/moesi.hh"
#include "sim/sim_object.hh"

namespace enzian::cache {

/** The bytes of one cache line. */
using LineData = std::array<std::uint8_t, lineSize>;

class Cache;

/**
 * One way of one set holding a resident line, as found by
 * Cache::lookup() or Cache::access(); empty when the line missed. It
 * lets a protocol step read, write, touch and re-state a line after a
 * single tag search. A handle stays valid until the next fill() or
 * invalidate() on its cache, or its own setState(Invalid).
 */
class LineHandle
{
  public:
    LineHandle() = default;

    explicit operator bool() const { return cache_ != nullptr; }

    /** The line's state; Invalid for an empty handle. */
    MoesiState state() const;

    /** The line's lineSize bytes. @pre non-empty. */
    std::uint8_t *data() const;

    /** Bump the line's LRU stamp and count a hit, as access() does. */
    void touch() const;

    /** Change the line's state; Invalid drops the line. @pre non-empty. */
    void setState(MoesiState state) const;

  private:
    friend class Cache;
    LineHandle(Cache *cache, std::uint32_t set, std::uint32_t way)
        : cache_(cache), set_(set), way_(way)
    {
    }

    Cache *cache_ = nullptr;
    std::uint32_t set_ = 0;
    std::uint32_t way_ = 0;
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

    /** Lookup without side effects. @return line state (I if absent). */
    MoesiState probe(Addr addr) const;

    /** Lookup without side effects. @return the line, or empty. */
    LineHandle lookup(Addr addr);

    /**
     * Lookup for access: on a hit bumps LRU and counts a hit, on a
     * miss counts a miss. @return the line, or empty on a miss.
     */
    LineHandle access(Addr addr);

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
     * way (i.e. would not evict a valid line). Lets callers that
     * cannot handle an Eviction allocate opportunistically.
     */
    bool hasFreeFrame(Addr addr, std::uint32_t owner = 0) const;

    /** Drop a line (e.g. on invalidation). @return its data if dirty. */
    std::optional<Eviction> invalidate(Addr addr);

    /** Drop the line @p line names. @return its data if dirty. */
    std::optional<Eviction> invalidate(LineHandle line);

    /**
     * Walk all valid lines in ascending set, then way, order (for
     * writeback flushes and checkers); visits only touched sets.
     * @p fn must not fill the cache.
     */
    void forEachLine(
        const std::function<void(Addr, MoesiState)> &fn) const;

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return cfg_.ways; }

    /**
     * Sets a fill has touched. A host-side footprint, deliberately
     * not a registry stat.
     */
    std::uint32_t allocatedSets() const
    {
        return static_cast<std::uint32_t>(touched_.size());
    }

    /** The way allocator, or nullptr under plain LRU. */
    const WayAllocator *allocator() const { return alloc_.get(); }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

  private:
    friend class LineHandle;

    /** No way of the set holds the line. */
    static constexpr std::size_t noWay = ~std::size_t{0};

    std::uint32_t setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr / lineSize) & (sets_ - 1));
    }
    /** The line's tag + 1: a zero tag key marks an Invalid way. */
    std::uint64_t tagKey(Addr addr) const
    {
        return ((addr / lineSize) >> setBits_) + 1;
    }
    /** Way of @p addr's line in its set, or noWay. */
    std::size_t findWay(Addr addr) const;
    /** Index of (set, way) in the set-major arrays. */
    std::size_t slot(std::uint32_t set, std::uint32_t way) const
    {
        return std::size_t{set} * cfg_.ways + way;
    }
    std::uint8_t *lineData(std::uint32_t set, std::uint32_t way)
    {
        return data_.data() + (std::size_t{way} * sets_ + set) * lineSize;
    }
    Addr lineAddr(std::uint32_t set, std::uint32_t way) const
    {
        return (((tags_[slot(set, way)] - 1) << setBits_) + set) *
               lineSize;
    }
    void setState(std::uint32_t set, std::uint32_t way, MoesiState state);

    Config cfg_;
    std::uint32_t sets_;
    std::uint32_t setBits_;
    std::uint64_t useClock_ = 0;
    /** Set-major, per way: tag + 1 of the resident line, 0 if Invalid. */
    ZeroedArray<std::uint64_t> tags_;
    /** Set-major, per way: MOESI state. */
    ZeroedArray<MoesiState> states_;
    /** Set-major, per way: LRU stamp of the last fill or hit. */
    ZeroedArray<std::uint64_t> stamps_;
    /** Way-major: lineSize bytes per (way, set); stale when Invalid. */
    ZeroedArray<std::uint8_t> data_;
    /** One bit per set, set by the set's first fill. */
    ZeroedArray<std::uint64_t> touchedBits_;
    /** The sets a fill touched, sorted by forEachLine() on demand. */
    mutable std::vector<std::uint32_t> touched_;
    mutable bool touchedSorted_ = true;
    std::unique_ptr<WayAllocator> alloc_; // null under plain LRU
    Counter hits_;
    Counter misses_;
    Counter evictions_;
};

inline MoesiState
LineHandle::state() const
{
    return cache_ ? cache_->states_[cache_->slot(set_, way_)]
                  : MoesiState::Invalid;
}

inline std::uint8_t *
LineHandle::data() const
{
    return cache_->lineData(set_, way_);
}

inline void
LineHandle::touch() const
{
    cache_->stamps_[cache_->slot(set_, way_)] = ++cache_->useClock_;
    cache_->hits_.inc();
}

inline void
LineHandle::setState(MoesiState state) const
{
    cache_->setState(set_, way_, state);
}

} // namespace enzian::cache

#endif // ENZIAN_CACHE_CACHE_HH
