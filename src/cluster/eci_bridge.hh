/**
 * @file
 * Cross-machine coherence bridge (paper section 6).
 *
 * "...accessible either through RDMA, or on Enzian by extending the
 * cache coherency protocol via a 'bridge' implemented on the FPGA" -
 * and section 4.1: ECI "in principle allows ... cache coherence to be
 * extended across machines".
 *
 * The bridge maps a window of machine A's FPGA-homed physical address
 * space onto memory owned by machine B. A's CPU caches those lines
 * through its ordinary ECI path (the L2 really holds them in
 * MOESI states; A's FPGA home agent tracks it in its directory); when
 * a refill misses, A's FPGA fetches the line with a one-sided RDMA
 * read over 100 GbE from B's bridge target on B's FPGA. The target is
 * an RDMA target whose memory path is B's FPGA remote agent: an
 * uncached coherent access over B's own ECI (net::EciHostPath), so a
 * line dirty in B's L2 is snooped by B's CPU home agent and forwarded
 * across the wire. Both ends of the bridge run in their machine's
 * FPGA timing domain, and the bridge gets RDMA's loss recovery by
 * arming it on the source's initiator.
 *
 * Writebacks travel the same path as RDMA writes and are non-posted
 * (the write completion carries the remote durability point), so
 * read-after-write across the bridge is safe. The model assumes a
 * single importing machine per window (B does not invalidate A's
 * cached copies when B itself writes; that direction is the open
 * research question the paper leaves to future work, and tests pin
 * the documented behaviour).
 */

#ifndef ENZIAN_CLUSTER_ECI_BRIDGE_HH
#define ENZIAN_CLUSTER_ECI_BRIDGE_HH

#include "eci/home_agent.hh"
#include "net/rdma_engine.hh"

namespace enzian::cluster {

/** Serving side of the bridge, on the exporting machine (B). */
class EciBridgeTarget
{
  public:
    /** Target configuration. */
    struct Config
    {
        std::uint32_t port = 0;
        /** Base of the exported region in B's physical space. */
        Addr export_base = 0;
        /** Request handling cost in the fabric (ns). */
        double proc_ns = 120.0;
    };

    /**
     * @param eq B's FPGA queue
     * @param agent B's FPGA remote agent; its uncached accesses to the
     *        CPU-homed exported region keep B's caches coherent
     */
    EciBridgeTarget(std::string name, EventQueue &eq, net::Switch &sw,
                    eci::RemoteAgent &agent, const Config &cfg);

    const Config &config() const { return cfg_; }

    /** The RDMA target that serves bridged lines. */
    net::RdmaTarget &rdma() { return rdma_; }

  private:
    Config cfg_;
    net::EciHostPath path_;
    net::RdmaTarget rdma_;
};

/**
 * Importing side: a LineSource for machine A's FPGA home agent that
 * forwards a window of A's address space to a bridge target;
 * everything else passes through to A's own DRAM.
 */
class EciBridgeSource : public SimObject, public eci::LineSource
{
  public:
    /** Source configuration. */
    struct Config
    {
        std::uint32_t port = 0;
        /** Bridged window in A's physical space (FPGA-homed). */
        Addr window_base = 0;
        std::uint64_t window_size = 0;
    };

    /**
     * @param fallback source for addresses outside the window
     *        (normally the machine's DRAM source)
     * @param target the exporting machine's bridge target; its port
     *        is the destination of every bridged line
     */
    EciBridgeSource(std::string name, EventQueue &eq, net::Switch &sw,
                    eci::LineSource &fallback, EciBridgeTarget &target,
                    const Config &cfg);

    void readLine(Tick when, Addr addr, std::uint8_t *out,
                  Done done) override;
    void writeLine(Tick when, Addr addr, const std::uint8_t *data,
                   Done done) override;
    /** Bridged writes are acknowledged at remote durability. */
    bool posted() const override { return false; }

    std::uint64_t linesBridged() const { return bridged_.value(); }

    /** The RDMA initiator that carries bridged lines. */
    net::RdmaInitiator &rdma() { return rdma_; }

  private:
    bool inWindow(Addr addr) const
    {
        return addr >= cfg_.window_base &&
               addr < cfg_.window_base + cfg_.window_size;
    }

    eci::LineSource &fallback_;
    Config cfg_;
    net::RdmaInitiator rdma_;
    Counter bridged_;
};

} // namespace enzian::cluster

#endif // ENZIAN_CLUSTER_ECI_BRIDGE_HH
