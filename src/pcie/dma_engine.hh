/**
 * @file
 * Descriptor-ring DMA engine model.
 *
 * Captures the cost structure that separates PCIe accelerators from
 * ECI in Figure 6: every transfer pays a doorbell MMIO write, a
 * descriptor fetch, and engine setup before the wire time, so small
 * transfers are latency- and rate-limited, while large transfers
 * amortize the overheads and approach wire bandwidth. Back-to-back
 * transfers pipeline through the ring: sustained throughput is bound
 * by per-descriptor processing, not by the full setup latency.
 *
 * When the host memory sits in another timing domain than the engine
 * (an EnzianMachine's CPU socket vs its FPGA), the host half of each
 * copy (the host store access and the host DRAM occupancy) runs in the
 * host's domain: it crosses at the transfer's start, which is always
 * at least one PCIe link latency after issue (engine setup or
 * per-descriptor time), and the completion crosses back at its own
 * tick, which is at least one link latency after the start.
 */

#ifndef ENZIAN_PCIE_DMA_ENGINE_HH
#define ENZIAN_PCIE_DMA_ENGINE_HH

#include <functional>
#include <vector>

#include "mem/memory_controller.hh"
#include "pcie/pcie_link.hh"
#include "sim/domain_binding.hh"

namespace enzian::pcie {

/** DMA engine moving data between host and device memory over PCIe. */
class DmaEngine : public SimObject
{
  public:
    using Done = std::function<void(Tick)>;

    /** Engine cost configuration. */
    struct Config
    {
        /** Doorbell MMIO write latency (ns). */
        double doorbell_ns = 250.0;
        /** Descriptor fetch round trip (ns). */
        double descriptor_fetch_ns = 600.0;
        /** Engine start/teardown per transfer (ns). */
        double engine_setup_ns = 350.0;
        /** Per-descriptor processing when pipelined (ns). */
        double per_descriptor_ns = 450.0;
    };

    DmaEngine(std::string name, EventQueue &eq, PcieLink &link,
              mem::MemoryController &host, mem::MemoryController &device,
              const Config &cfg);

    /**
     * Put the host memory in @p host_domain and the engine (with its
     * link and device memory) in @p engine_domain. When the two
     * differ, host-side work crosses a channel pair whose lookahead
     * is the PCIe link latency; otherwise everything stays on the
     * engine's queue. Must precede the scheduler start.
     */
    void bindDomains(sim::DomainScheduler &sched,
                     sim::TimingDomain &engine_domain,
                     sim::TimingDomain &host_domain);

    /** Copy @p len bytes host->device (functional + timed). */
    void hostToDevice(Addr host_off, Addr dev_off, std::uint64_t len,
                      Done done);

    /** Copy @p len bytes device->host (functional + timed). */
    void deviceToHost(Addr dev_off, Addr host_off, std::uint64_t len,
                      Done done);

    /**
     * Unpipelined latency of one transfer of @p len bytes (for
     * latency-style microbenchmarks): full setup + wire + memory.
     */
    Tick transferLatency(std::uint64_t len) const;

    std::uint64_t transfers() const { return xfers_.value(); }

    /** Host-side memory behind this engine. */
    mem::MemoryController &host() { return host_; }

    /** Device-side memory behind this engine. */
    mem::MemoryController &device() { return device_; }

  private:
    /** Doorbell + descriptor fetch + engine setup. */
    Tick setupTicks() const;

    /** A transfer whose host half runs in the host's domain. */
    struct HostLeg
    {
        bool toHost = false;
        Addr hostOff = 0;
        Addr devOff = 0;
        std::uint64_t len = 0;
        Tick issued = 0;
        Tick start = 0;
        /** Tick the wire and the device DRAM are done. */
        Tick engineDone = 0;
        /** Payload: device bytes for d2h, host bytes for h2d. */
        std::vector<std::uint8_t> data;
        Done done;
    };

    void
    transfer(Addr src_off, Addr dst_off, std::uint64_t len, bool to_host,
             Done done);
    /** Host half of @p leg, at its start tick in the host's domain. */
    void serveHost(HostLeg &&leg);
    /** Device half and completion, back in the engine's domain. */
    void finish(HostLeg &&leg, Tick complete);

    Config cfg_;
    PcieLink &link_;
    mem::MemoryController &host_;
    mem::MemoryController &device_;
    Tick engineFreeAt_ = 0;
    /** Direction 0 is engine -> host, 1 is host -> engine. */
    sim::DirDomainBinding dirBind_;
    Counter xfers_;
    Counter bytes_;
    /** Submit-to-completion latency per transfer, ns. */
    Accumulator latency_;
};

} // namespace enzian::pcie

#endif // ENZIAN_PCIE_DMA_ENGINE_HH
