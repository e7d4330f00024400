/**
 * @file
 * Seeded, sim-time-scheduled fault injection.
 *
 * The injector turns a declarative FaultPlan into scheduled events and
 * per-message fault filters against an attached set of subsystems. It
 * runs every fault kind the same way on one event queue and on a
 * machine sharded into timing domains, by one rule:
 *
 *  - One stream per faulted component: each ECI direction, DRAM node,
 *    TCP stack, the RDMA initiator, the RDMA target and the BMC draw
 *    from their own Rng stream, forked from the plan seed by a fixed
 *    ordinal. Enabling (or reordering) faults in one component never
 *    perturbs another's draws, and the same plan + seed reproduces
 *    the same injection schedule bit-for-bit.
 *
 *  - One queue per faulted component: a fault's window or one-shot
 *    events run on the queue of the component they change, so only
 *    that component's domain touches its stream and fault state.
 *
 *  - Counts staged per domain: on a sharded machine each queue counts
 *    its injections in its own stage, folded into the reported
 *    counters at every epoch barrier in a fixed order, so counts are
 *    identical for any thread count. The scheduler is the attached
 *    ECI fabric's.
 *
 *  - Zero overhead when off: nothing here touches a subsystem unless
 *    the plan names it; with no plan the simulated machine's event
 *    stream is untouched (golden-file tests enforce this).
 *
 * The injector also flips on the recovery machinery the faults
 * require (ECI same-tid retry + reply cache, TCP go-back-N
 * retransmission, RDMA fresh-id retry), since injecting loss without
 * recovery would simply hang the run.
 */

#ifndef ENZIAN_FAULT_FAULT_INJECTOR_HH
#define ENZIAN_FAULT_FAULT_INJECTOR_HH

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "bmc/bmc.hh"
#include "eci/home_agent.hh"
#include "eci/remote_agent.hh"
#include "fault/fault_plan.hh"
#include "mem/dram_channel.hh"
#include "net/rdma_engine.hh"
#include "net/tcp_stack.hh"

namespace enzian::fault {

/** Executes a FaultPlan against an attached machine. */
class FaultInjector : public SimObject
{
  public:
    FaultInjector(std::string name, EventQueue &eq,
                  const FaultPlan &plan);

    /**
     * Attach the ECI fabric and its four protocol agents. Installs a
     * fault filter per link (drop/corrupt windows; IPIs are exempt
     * from loss because they have no retry path) and enables the
     * agents' recovery machinery when the plan contains any ECI loss
     * kind. On a machine sharded into timing domains the fabric's
     * scheduler folds the injector's counts. Call before arm().
     */
    void attachEci(eci::EciFabric &fabric, eci::HomeAgent &cpu_home,
                   eci::HomeAgent &fpga_home,
                   eci::RemoteAgent &cpu_remote,
                   eci::RemoteAgent &fpga_remote);

    /** Attach both nodes' DRAM systems for ECC injection. */
    void attachDram(mem::DramSystem &cpu_dram,
                    mem::DramSystem &fpga_dram);

    /**
     * Attach a TCP stack pair for loss/reorder injection. Turns on
     * both stacks' retransmission (enableRecovery()) when the plan
     * can lose segments (NetLoss; the in-order receiver absorbs
     * reordering alone), so call before connect().
     */
    void attachNet(net::TcpStack &a, net::TcpStack &b);

    /**
     * Attach an RDMA initiator/target pair for request/response loss.
     * @p abandon_after_retries makes the initiator drop (and count) a
     * request once retries are exhausted instead of panicking — for
     * open-loop load harnesses where overload-induced retry storms
     * are an expected outcome, not a livelock bug.
     */
    void attachRdma(net::RdmaInitiator &ini, net::RdmaTarget &tgt,
                    bool abandon_after_retries = false);

    /**
     * Attach the BMC for rail-glitch injection. The injector brings
     * the board up first (standby, then CPU + FPGA domains) if the
     * harness has not, and serializes glitches so power cycles of one
     * domain never overlap.
     */
    void attachBmc(bmc::Bmc &bmc);

    /**
     * Schedule every fault in the plan. Call once, after attaching,
     * before the run. Components on more than one queue need the ECI
     * fabric attached, since its scheduler folds their counts.
     */
    void arm();

    /** True if the plan can lose ECI messages (drop/corrupt/flap). */
    bool eciLossy() const;

    /** Total injections across all kinds. */
    std::uint64_t injectedTotal() const;

    /** Human-readable per-kind injection/recovery summary. */
    std::string report() const;

  private:
    using Counts = std::array<std::uint64_t, faultKindCount>;

    /** Open-window accumulation for one TCP stack. */
    struct NetWindow
    {
        double drop = 0.0;
        double reorder = 0.0;
        double reorderDelayUs = 20.0;
    };

    eci::EciLink::FaultAction eciFilter(Tick t, const eci::EciMsg &msg);
    void applyDramWindows(std::size_t node);
    void applyNetWindow(std::size_t stack);
    void applyRdmaWindow(std::size_t side);
    void scheduleBmcPowerUp(Tick at);
    void runNextGlitch(std::size_t i);
    void addStage(EventQueue &q);
    void count(EventQueue &q, FaultKind k);
    void openWindow(EventQueue &q, const FaultSpec &s, bool counted,
                    double &slot, std::function<void(bool open)> apply);
    void foldStagedCounts();

    FaultPlan plan_;
    bool armed_ = false;

    /** Per-component streams forked from the plan seed. */
    std::array<Rng, 2> eciDirRng_; ///< by source node
    std::array<Rng, 2> dramRng_;   ///< by node
    std::array<Rng, 2> netRng_;    ///< by attached stack
    std::array<Rng, 2> rdmaRng_;   ///< initiator, target
    Rng bmcRng_;

    /**
     * Count stages, one per queue a fault event or filter runs on
     * (queues_[i] counts into staged_[i]), in first-use order; with a
     * scheduler each is touched only by its domain and folded into
     * injected_ at every barrier in that order. Without one, counts go
     * straight to injected_.
     */
    sim::DomainScheduler *sched_ = nullptr;
    std::vector<EventQueue *> queues_;
    std::vector<Counts> staged_;

    // Attached subsystems (null = not attached).
    eci::EciFabric *fabric_ = nullptr;
    eci::HomeAgent *homes_[2] = {nullptr, nullptr};
    eci::RemoteAgent *remotes_[2] = {nullptr, nullptr};
    mem::DramSystem *drams_[2] = {nullptr, nullptr};
    net::TcpStack *tcp_[2] = {nullptr, nullptr};
    net::RdmaInitiator *rdmaIni_ = nullptr;
    net::RdmaTarget *rdmaTgt_ = nullptr;
    bmc::Bmc *bmc_ = nullptr;

    /** Message-loss specs the per-send filter scans. */
    std::vector<FaultSpec> eciMsgSpecs_;
    /** Open-window accumulation per node for DRAM ECC. */
    mem::DramChannel::EccConfig eccNow_[2];
    /** Open-window accumulation per TCP stack and RDMA side. */
    std::array<NetWindow, 2> netNow_;
    std::array<double, 2> rdmaDropNow_{0.0, 0.0};
    /** Rail glitches, run strictly one after the other. */
    std::vector<std::string> glitchRails_;

    std::array<Counter, faultKindCount> injected_;
};

} // namespace enzian::fault

#endif // ENZIAN_FAULT_FAULT_INJECTOR_HH
