/**
 * @file
 * The complete Enzian machine: composition root.
 *
 * Builds the two-socket asymmetric NUMA system of Figure 4: the
 * 48-core ThunderX-1 node (L2 + 4 DDR4-2133 channels) and the
 * XCVU9P node (4 DDR4-2400 channels, Coyote shell) connected by the
 * two-link ECI fabric, plus the BMC with the board's power tree.
 * Also configurable into the 2-socket CPU-CPU machine the paper uses
 * as its interconnect reference.
 */

#ifndef ENZIAN_PLATFORM_ENZIAN_MACHINE_HH
#define ENZIAN_PLATFORM_ENZIAN_MACHINE_HH

#include <memory>
#include <ostream>
#include <string>

#include "bmc/bmc.hh"
#include "cpu/core_cluster.hh"
#include "eci/home_agent.hh"
#include "eci/remote_agent.hh"
#include "fpga/shell.hh"
#include "platform/params.hh"

namespace enzian::sim {
class DomainScheduler;
class TimingDomain;
} // namespace enzian::sim

namespace enzian::platform {

/** The simulated machine. */
class EnzianMachine
{
  public:
    /** Machine configuration. */
    struct Config
    {
        /**
         * DRAM sizes: defaults are simulation-friendly windows; the
         * address map is identical to the full-size machine, only
         * the modelled capacity differs (the store is sparse anyway).
         */
        std::uint64_t cpu_dram_bytes = 4ull << 30;
        std::uint64_t fpga_dram_bytes = 4ull << 30;
        std::uint32_t cores = params::cpuCores;
        eci::EciLink::Config link;
        std::uint32_t links = params::eciLinks;
        eci::BalancePolicy policy = eci::BalancePolicy::AddressHash;
        eci::RemoteAgent::Config remote_agent;
        /** Attach the L2 to the CPU remote agent (cached mode). */
        bool cpu_caches_remote = true;
        /**
         * CPU home agent read-allocate: local reads that miss the L2
         * install the line there as Shared (free frames only). Gives
         * write-update protocols a resident home copy to refresh.
         * Off by default — reference timing runs are unchanged.
         */
        bool home_read_allocate = false;
        /**
         * Coherence protocol table for all four agents; one of the
         * names registered in eci::proto::allProtocols() ("moesi",
         * "mesi", "dragon"). Unknown names are fatal.
         */
        std::string protocol = "moesi";
        /** Initial bitstream loaded into the fabric. */
        std::string bitstream = "eci-bench";
        /**
         * Parallel simulation: > 0 shards the machine into a CPU
         * timing domain and an FPGA timing domain run by a
         * conservative-PDES scheduler on this many threads. The
         * epoch lookahead derives from the ECI link config
         * (eci::EciLink::minCrossLatency). threads == 1 uses the
         * same domain semantics sequentially, so results are
         * bit-identical across all thread counts. 0 (default) is
         * the classic single-queue machine.
         */
        std::uint32_t threads = 0;
        /**
         * Optional externally owned scheduler; several machines may
         * join one scheduler so all their domains run under a single
         * epoch loop (EnzianCluster and the scaling bench do this).
         * Must outlive the machine, and its lookahead must not
         * exceed this machine's link latency floor. Implies domain
         * mode regardless of `threads`.
         */
        sim::DomainScheduler *shared_scheduler = nullptr;
        /**
         * Owned-scheduler epoch policy: grow epochs to the provable
         * cross-domain delivery bound when channels are quiescent
         * (see sim::DomainScheduler::Options). Ignored with
         * shared_scheduler — the scheduler's owner decides there.
         */
        bool adaptive_epochs = false;
        /** Instance name prefix (must be unique in a cluster). */
        std::string name = "enzian";

        Config();
    };

    explicit EnzianMachine(const Config &cfg);
    ~EnzianMachine();

    EnzianMachine(const EnzianMachine &) = delete;
    EnzianMachine &operator=(const EnzianMachine &) = delete;

    // --- kernel ------------------------------------------------------
    /** The CPU domain's queue (the only queue in legacy mode). */
    EventQueue &eventq() { return *eqPtr_; }
    /** The FPGA domain's queue; == eventq() in legacy mode. */
    EventQueue &fpgaEventq() { return *fpgaEqPtr_; }
    Tick now() const { return eqPtr_->now(); }

    /** The domain scheduler, or null in legacy mode. */
    sim::DomainScheduler *scheduler() { return schedPtr_; }
    /** The CPU timing domain, or null in legacy mode. */
    sim::TimingDomain *cpuDomain() { return cpuDomain_; }
    /** The FPGA timing domain, or null in legacy mode. */
    sim::TimingDomain *fpgaDomain() { return fpgaDomain_; }

    /**
     * Run the simulation to completion: the domain scheduler in
     * parallel mode (which drives every machine sharing it),
     * otherwise the event queue. @return events executed.
     */
    std::uint64_t run();
    /** Run the simulation up to @p limit. @return events executed. */
    std::uint64_t runUntil(Tick limit);

    // --- memory system -------------------------------------------------
    mem::AddressMap &map() { return *map_; }
    mem::MemoryController &cpuMem() { return *cpuMem_; }
    mem::MemoryController &fpgaMem() { return *fpgaMem_; }
    cache::Cache &l2() { return *l2_; }

    // --- ECI -----------------------------------------------------------
    eci::EciFabric &fabric() { return *fabric_; }
    eci::HomeAgent &cpuHome() { return *cpuHome_; }
    eci::HomeAgent &fpgaHome() { return *fpgaHome_; }
    eci::RemoteAgent &cpuRemote() { return *cpuRemote_; }
    eci::RemoteAgent &fpgaRemote() { return *fpgaRemote_; }
    eci::IoSpace &cpuIo() { return *cpuIoSpace_; }
    eci::IoSpace &fpgaIo() { return *fpgaIoSpace_; }

    // --- FPGA ------------------------------------------------------------
    fpga::Fabric &fpga() { return *fpga_; }
    fpga::Shell &shell() { return *shell_; }

    /** Load a registered bitstream; retunes the fabric clock. */
    Tick loadBitstream(const std::string &name);

    // --- CPU ---------------------------------------------------------
    cpu::CoreCluster &cluster() { return *cluster_; }

    // --- BMC ----------------------------------------------------------
    bmc::Bmc &bmc() { return *bmc_; }

    const Config &config() const { return cfg_; }

    /**
     * Dump the statistics of every major component ("gem5 stats
     * file" style): caches, links, agents, DRAM channels, I2C.
     */
    void dumpStats(std::ostream &os);

  private:
    Config cfg_;
    /** Owned scheduler (domain mode without shared_scheduler).
     *  Declared before every component so the domains' queues are
     *  destroyed last. */
    std::unique_ptr<sim::DomainScheduler> sched_;
    sim::DomainScheduler *schedPtr_ = nullptr;
    sim::TimingDomain *cpuDomain_ = nullptr;
    sim::TimingDomain *fpgaDomain_ = nullptr;
    std::unique_ptr<EventQueue> eq_; ///< single-queue mode only
    EventQueue *eqPtr_ = nullptr;
    EventQueue *fpgaEqPtr_ = nullptr;
    std::unique_ptr<mem::AddressMap> map_;
    std::unique_ptr<mem::MemoryController> cpuMem_;
    std::unique_ptr<mem::MemoryController> fpgaMem_;
    std::unique_ptr<cache::Cache> l2_;
    std::unique_ptr<eci::EciFabric> fabric_;
    std::unique_ptr<eci::IoSpace> cpuIoSpace_;
    std::unique_ptr<eci::IoSpace> fpgaIoSpace_;
    std::unique_ptr<eci::HomeAgent> cpuHome_;
    std::unique_ptr<eci::HomeAgent> fpgaHome_;
    std::unique_ptr<eci::RemoteAgent> cpuRemote_;
    std::unique_ptr<eci::RemoteAgent> fpgaRemote_;
    std::unique_ptr<fpga::Fabric> fpga_;
    std::unique_ptr<fpga::Shell> shell_;
    std::unique_ptr<cpu::CoreCluster> cluster_;
    std::unique_ptr<bmc::Bmc> bmc_;
};

} // namespace enzian::platform

#endif // ENZIAN_PLATFORM_ENZIAN_MACHINE_HH
