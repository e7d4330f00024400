/**
 * @file
 * Per-node memory controller: couples the functional BackingStore of
 * a node's DRAM with its DramSystem timing. Both the ECI home agent
 * and local caches perform accesses through this interface.
 */

#ifndef ENZIAN_MEM_MEMORY_CONTROLLER_HH
#define ENZIAN_MEM_MEMORY_CONTROLLER_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/address_map.hh"
#include "mem/backing_store.hh"
#include "mem/dram_channel.hh"
#include "sim/sim_object.hh"

namespace enzian::mem {

/** Result of a timed memory access. */
struct AccessResult
{
    /** Tick at which the data is available / the write is durable. */
    Tick done;
};

/** A node-local memory controller (functional + timing). */
class MemoryController : public SimObject
{
  public:
    /**
     * @param name hierarchical name
     * @param eq event queue
     * @param size bytes of DRAM behind this controller
     * @param channels number of DDR4 channels
     * @param cfg per-channel timing configuration
     */
    MemoryController(std::string name, EventQueue &eq, std::uint64_t size,
                     std::uint32_t channels,
                     const DramChannel::Config &cfg);

    /** Timed read: copies into @p dst and returns completion tick. */
    AccessResult read(Tick when, Addr offset, void *dst,
                      std::uint64_t len);

    /** Timed write: copies from @p src and returns completion tick. */
    AccessResult write(Tick when, Addr offset, const void *src,
                       std::uint64_t len);

    /**
     * Timed strided (2D) read: @p rows bursts of @p row_bytes whose
     * start addresses are @p pitch apart, gathered densely into
     * @p dst. Each row is its own DRAM access, so a tile walk with a
     * large pitch pays the per-access latency once per row — the
     * cost a blocked-transpose engine's column reads incur. All rows
     * issue at @p when (the address generator runs ahead); the
     * channels' bus occupancy serializes them.
     */
    AccessResult readStrided(Tick when, Addr offset,
                             std::uint64_t row_bytes,
                             std::uint32_t rows, std::uint64_t pitch,
                             void *dst);

    /** Timed strided (2D) write, scattering @p src over the rows. */
    AccessResult writeStrided(Tick when, Addr offset,
                              std::uint64_t row_bytes,
                              std::uint32_t rows, std::uint64_t pitch,
                              const void *src);

    /** Rows moved by strided accesses (stat mirror). */
    std::uint64_t stridedRows() const { return stridedRows_.value(); }

    /** Untimed (functional) access for loaders and checkers. */
    BackingStore &store() { return store_; }
    const BackingStore &store() const { return store_; }

    DramSystem &dram() { return dram_; }

    /**
     * Claim [base, base + bytes) for @p owner, a service that keeps
     * its own data there. Fatal if the range overlaps an earlier
     * claim, naming both owners and both ranges. Claims last as long
     * as the controller; accesses do not check them.
     */
    void reserve(Addr base, std::uint64_t bytes, std::string owner);

  private:
    struct Reservation
    {
        Addr base;
        std::uint64_t bytes;
        std::string owner;
    };

    BackingStore store_;
    DramSystem dram_;
    std::vector<Reservation> reserved_;
    Counter stridedOps_;
    Counter stridedRows_;
};

} // namespace enzian::mem

#endif // ENZIAN_MEM_MEMORY_CONTROLLER_HH
