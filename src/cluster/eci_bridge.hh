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
 * a refill misses, A's FPGA fetches the line over 100 GbE from B's
 * bridge target on B's FPGA, which reads or writes it through B's
 * FPGA remote agent: an uncached coherent access over B's own ECI, so
 * a line dirty in B's L2 is snooped by B's CPU home agent and
 * forwarded across the wire. Both ends of the bridge run in their
 * machine's FPGA timing domain.
 *
 * Writebacks travel the same path and are non-posted (the ECI ack
 * carries the remote durability point), so read-after-write across
 * the bridge is safe. The model assumes a single importing machine
 * per window (B does not invalidate A's cached copies when B itself
 * writes; that direction is the open research question the paper
 * leaves to future work, and tests pin the documented behaviour).
 */

#ifndef ENZIAN_CLUSTER_ECI_BRIDGE_HH
#define ENZIAN_CLUSTER_ECI_BRIDGE_HH

#include <unordered_map>
#include <vector>

#include "eci/home_agent.hh"
#include "eci/remote_agent.hh"
#include "net/switch.hh"

namespace enzian::cluster {

/** Serving side of the bridge, on the exporting machine (B). */
class EciBridgeTarget : public SimObject
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

    std::uint64_t linesServed() const { return served_.value(); }

    const Config &config() const { return cfg_; }

    /**
     * Body of a bridge frame. A source sends an op to the target in
     * it, and the target sends the same record back as the response,
     * carrying the line for a read.
     */
    struct WireOp
    {
        bool write = false;
        Addr line = 0; // window-relative
        std::uint32_t srcPort = 0;
        /** Op id, unique per source. */
        std::uint64_t id = 0;
        std::vector<std::uint8_t> data; // write payload / read result
    };

  private:
    void serve(WireOp &&wop);

    net::Switch &sw_;
    eci::RemoteAgent &agent_;
    Config cfg_;
    Counter served_;
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
     *        is the destination of every bridged op
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

  private:
    bool inWindow(Addr addr) const
    {
        return addr >= cfg_.window_base &&
               addr < cfg_.window_base + cfg_.window_size;
    }

    struct Pending
    {
        std::uint8_t *out = nullptr;
        Done done;
    };

    /** Send @p op to the target at @p when; @p p completes it. */
    void issue(Tick when, EciBridgeTarget::WireOp op, Pending p,
               const char *what);
    void onFrame(Tick when, net::Frame &&frame);

    net::Switch &sw_;
    eci::LineSource &fallback_;
    EciBridgeTarget &target_;
    Config cfg_;
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::uint64_t nextId_ = 1;
    Counter bridged_;
};

} // namespace enzian::cluster

#endif // ENZIAN_CLUSTER_ECI_BRIDGE_HH
