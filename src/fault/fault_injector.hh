/**
 * @file
 * Seeded, sim-time-scheduled fault injection.
 *
 * The injector turns a declarative FaultPlan into scheduled events and
 * per-message fault filters against an attached set of subsystems. Two
 * properties are load-bearing:
 *
 *  - Determinism: every subsystem draws from its own Rng stream forked
 *    from the plan seed, so enabling (or reordering) faults in one
 *    subsystem never perturbs another's draws, and the same plan +
 *    seed reproduces the same injection schedule bit-for-bit.
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
#include "sim/domain_binding.hh"

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
     * kind. Call before arm().
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
     * contains a net fault kind, so call before connect().
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
     * Parallel domain mode: ECI message faults draw from one RNG
     * stream per link direction (each touched only by its source
     * domain) and stage their injection counts per direction, folded
     * into the reported counters at every epoch barrier — so counts
     * and draws are bit-identical for any thread count. Only
     * domain-local fault kinds (EciMsgDrop / EciMsgCorrupt) may be
     * armed in this mode; arm() rejects the rest. Call before arm().
     */
    void bindDomains(sim::DomainScheduler &sched);

    /** True when bindDomains() has switched to per-direction streams. */
    bool domainMode() const { return stagedCounts_.armed(); }

    /** Can @p k inject without cross-domain shared state? */
    static bool kindDomainSafe(FaultKind k)
    {
        return k == FaultKind::EciMsgDrop ||
               k == FaultKind::EciMsgCorrupt;
    }

    /** Schedule every fault in the plan. Call once, after attaching. */
    void arm();

    /** True if the plan can lose ECI messages (drop/corrupt/flap). */
    bool eciLossy() const;

    /** Injections performed so far for @p k. */
    std::uint64_t injected(FaultKind k) const
    {
        return injected_[static_cast<std::size_t>(k)].value();
    }

    /** Total injections across all kinds. */
    std::uint64_t injectedTotal() const;

    /** Human-readable per-kind injection/recovery summary. */
    std::string report() const;

    const FaultPlan &plan() const { return plan_; }

  private:
    eci::EciLink::FaultAction eciFilter(Tick t, const eci::EciMsg &msg);
    void applyDramWindows(mem::DramSystem *dram, std::size_t node);
    void applyNetWindows();
    void applyRdmaWindows();
    void scheduleBmcPowerUp(Tick at);
    void runNextGlitch(std::size_t i);
    void count(FaultKind k) { injected_[static_cast<std::size_t>(k)].inc(); }
    void foldDomainCounts();

    FaultPlan plan_;
    bool armed_ = false;

    /** Per-subsystem streams forked from the plan seed. */
    Rng eciRng_;
    Rng dramRng_;
    Rng netRng_;
    Rng rdmaRng_;
    Rng bmcRng_;
    /**
     * Domain mode: one ECI stream per link direction (index =
     * source node), touched only by that direction's source domain,
     * plus per-direction staged injection counts folded into the
     * shared counters at epoch barriers (dir 0 first, then dir 1);
     * arming the stage is the domain-mode flag.
     */
    std::array<Rng, 2> eciDirRng_;
    sim::DirStaged<std::array<std::uint64_t, faultKindCount>>
        stagedCounts_;

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
    /** Open-window accumulation for net/rdma loss. */
    double netDropNow_ = 0.0;
    double netReorderNow_ = 0.0;
    double netReorderDelayUs_ = 20.0;
    double rdmaDropNow_ = 0.0;
    /** Rail glitches, run strictly one after the other. */
    std::vector<std::string> glitchRails_;

    std::array<Counter, faultKindCount> injected_;
};

} // namespace enzian::fault

#endif // ENZIAN_FAULT_FAULT_INJECTOR_HH
