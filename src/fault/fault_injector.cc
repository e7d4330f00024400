/**
 * @file
 * Fault injector implementation.
 */

#include "fault/fault_injector.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::fault {

namespace {

/**
 * Component stream ordinals; mixed into the plan seed with a
 * golden-ratio stride so the per-component streams are decorrelated.
 */
constexpr std::uint64_t streamStride = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t bmcStream = 5;
constexpr std::uint64_t eciStream = 16;  ///< + source node
constexpr std::uint64_t dramStream = 18; ///< + node
constexpr std::uint64_t netStream = 20;  ///< + attached stack
constexpr std::uint64_t rdmaStream = 22; ///< + 0 initiator, 1 target

Rng
stream(std::uint64_t seed, std::uint64_t ordinal)
{
    return Rng(seed ^ (ordinal * streamStride));
}

/** Initial retry timeouts; generous against retrain-length stalls. */
constexpr double eciRetryUs = 30.0;
constexpr double netRtoUs = 150.0;
constexpr double rdmaRetryUs = 50.0;

/** A small pool of glitchable rails per domain. */
const char *const cpuRails[] = {"VDD_CORE", "VDD_09", "P1V8_CPU",
                                "VDD_DDR_C01"};
const char *const fpgaRails[] = {"VCCINT", "VCCAUX", "MGTAVCC",
                                 "VDD_DDR_F"};

} // namespace

FaultInjector::FaultInjector(std::string name, EventQueue &eq,
                             const FaultPlan &plan)
    : SimObject(std::move(name), eq), plan_(plan),
      eciDirRng_{stream(plan.seed, eciStream),
                 stream(plan.seed, eciStream + 1)},
      dramRng_{stream(plan.seed, dramStream),
               stream(plan.seed, dramStream + 1)},
      netRng_{stream(plan.seed, netStream),
              stream(plan.seed, netStream + 1)},
      rdmaRng_{stream(plan.seed, rdmaStream),
               stream(plan.seed, rdmaStream + 1)},
      bmcRng_(stream(plan.seed, bmcStream))
{
    for (std::size_t k = 0; k < faultKindCount; ++k) {
        stats().addCounter(
            std::string("injected_") +
                toString(static_cast<FaultKind>(k)),
            &injected_[k]);
    }
}

bool
FaultInjector::eciLossy() const
{
    return plan_.hasKind(FaultKind::EciMsgDrop) ||
           plan_.hasKind(FaultKind::EciMsgCorrupt) ||
           plan_.hasKind(FaultKind::EciLinkFlap);
}

void
FaultInjector::addStage(EventQueue &q)
{
    ENZIAN_ASSERT(!armed_, "fault count stages are fixed at arm()");
    if (std::find(queues_.begin(), queues_.end(), &q) == queues_.end())
        queues_.push_back(&q);
}

void
FaultInjector::count(EventQueue &q, FaultKind k)
{
    const auto i = static_cast<std::size_t>(k);
    if (!sched_) {
        injected_[i].inc();
        return;
    }
    const auto stage = std::find(queues_.begin(), queues_.end(), &q);
    ENZIAN_ASSERT(stage != queues_.end(), "count on an unstaged queue");
    ++staged_[static_cast<std::size_t>(stage - queues_.begin())][i];
}

void
FaultInjector::foldStagedCounts()
{
    // Fixed fold order (stage creation order) so the shared counters
    // are identical for every thread count.
    for (Counts &stage : staged_) {
        for (std::size_t k = 0; k < faultKindCount; ++k) {
            if (stage[k] != 0) {
                injected_[k].inc(stage[k]);
                stage[k] = 0;
            }
        }
    }
}

void
FaultInjector::openWindow(EventQueue &q, const FaultSpec &s, bool counted,
                          double &slot,
                          std::function<void(bool open)> apply)
{
    // The spec's probability adds to the component's open windows at
    // s.at and comes off at s.until, both on the component's queue.
    addStage(q);
    q.schedule(
        s.at,
        [this, &q, counted, &slot, apply, p = s.prob, kind = s.kind]() {
            if (counted)
                count(q, kind);
            slot += p;
            apply(true);
        },
        "fault-window-open");
    if (s.until > s.at) {
        q.schedule(
            s.until,
            [&slot, apply, p = s.prob]() {
                slot = std::max(0.0, slot - p);
                apply(false);
            },
            "fault-window-close");
    }
}

void
FaultInjector::attachEci(eci::EciFabric &fabric,
                         eci::HomeAgent &cpu_home,
                         eci::HomeAgent &fpga_home,
                         eci::RemoteAgent &cpu_remote,
                         eci::RemoteAgent &fpga_remote)
{
    fabric_ = &fabric;
    homes_[0] = &cpu_home;
    homes_[1] = &fpga_home;
    remotes_[0] = &cpu_remote;
    remotes_[1] = &fpga_remote;
    // Every link of a fabric joins the same two domains.
    sched_ = fabric.link(0).scheduler();
    addStage(fabric.link(0).sendQueue(mem::NodeId::Cpu));
    addStage(fabric.link(0).sendQueue(mem::NodeId::Fpga));

    for (const auto &s : plan_.faults) {
        if (s.kind == FaultKind::EciMsgDrop ||
            s.kind == FaultKind::EciMsgCorrupt)
            eciMsgSpecs_.push_back(s);
    }
    if (!eciMsgSpecs_.empty()) {
        for (std::uint32_t i = 0; i < fabric.linkCount(); ++i) {
            fabric.link(i).setFaultFilter(
                [this](Tick t, const eci::EciMsg &m) {
                    return eciFilter(t, m);
                });
        }
    }
    if (eciLossy()) {
        // Loss anywhere on the fabric needs the full recovery stack:
        // requester same-tid retries, home-side dedup + replay, and
        // home snoop retries.
        cpu_remote.enableRecovery(eciRetryUs, 24);
        fpga_remote.enableRecovery(eciRetryUs, 24);
        cpu_home.enableRecovery(eciRetryUs, 24);
        fpga_home.enableRecovery(eciRetryUs, 24);
    }
}

eci::EciLink::FaultAction
FaultInjector::eciFilter(Tick t, const eci::EciMsg &msg)
{
    // IPIs have no retry path, so loss injection exempts them.
    if (msg.op == eci::Opcode::IPI)
        return eci::EciLink::FaultAction::Deliver;
    // The filter runs in the sending domain: it draws only from its
    // direction's stream and counts in that domain's stage.
    const auto dir = static_cast<std::size_t>(msg.src);
    for (const auto &s : eciMsgSpecs_) {
        if (t < s.at || (s.until != 0 && t >= s.until))
            continue;
        if (eciDirRng_[dir].chance(s.prob)) {
            count(fabric_->link(0).sendQueue(msg.src), s.kind);
            return s.kind == FaultKind::EciMsgDrop
                       ? eci::EciLink::FaultAction::Drop
                       : eci::EciLink::FaultAction::Corrupt;
        }
    }
    return eci::EciLink::FaultAction::Deliver;
}

void
FaultInjector::attachDram(mem::DramSystem &cpu_dram,
                          mem::DramSystem &fpga_dram)
{
    drams_[0] = &cpu_dram;
    drams_[1] = &fpga_dram;
}

void
FaultInjector::applyDramWindows(std::size_t node)
{
    const auto &cfg = eccNow_[node];
    const bool active =
        cfg.correctable_prob > 0.0 || cfg.uncorrectable_prob > 0.0;
    mem::DramSystem *dram = drams_[node];
    for (std::uint32_t i = 0; i < dram->channelCount(); ++i)
        dram->channel(i).armEcc(active ? &dramRng_[node] : nullptr, cfg);
}

void
FaultInjector::attachNet(net::TcpStack &a, net::TcpStack &b)
{
    tcp_[0] = &a;
    tcp_[1] = &b;
    if (plan_.hasKind(FaultKind::NetLoss)) {
        // Recovery must be on before any flow opens.
        a.enableRecovery(netRtoUs);
        b.enableRecovery(netRtoUs);
    }
}

void
FaultInjector::applyNetWindow(std::size_t stack)
{
    const NetWindow &w = netNow_[stack];
    Rng *rng = (w.drop > 0.0 || w.reorder > 0.0) ? &netRng_[stack]
                                                 : nullptr;
    tcp_[stack]->setLossFaults(rng, w.drop, w.reorder, w.reorderDelayUs);
}

void
FaultInjector::attachRdma(net::RdmaInitiator &ini, net::RdmaTarget &tgt,
                          bool abandon_after_retries)
{
    rdmaIni_ = &ini;
    rdmaTgt_ = &tgt;
    if (plan_.hasKind(FaultKind::RdmaDrop))
        ini.enableRecovery(rdmaRetryUs, 16, abandon_after_retries);
}

void
FaultInjector::applyRdmaWindow(std::size_t side)
{
    const double p = rdmaDropNow_[side];
    Rng *rng = p > 0.0 ? &rdmaRng_[side] : nullptr;
    if (side == 0)
        rdmaIni_->setFaults(rng, p);
    else
        rdmaTgt_->setFaults(rng, p);
}

void
FaultInjector::attachBmc(bmc::Bmc &bmc)
{
    bmc_ = &bmc;
}

void
FaultInjector::arm()
{
    ENZIAN_ASSERT(!armed_, "FaultInjector armed twice");
    Tick bmcAt = 0;
    bool haveGlitch = false;
    for (const auto &s : plan_.faults) {
        switch (s.kind) {
          case FaultKind::EciMsgDrop:
          case FaultKind::EciMsgCorrupt:
            break; // handled by the per-send filter
          case FaultKind::EciLaneFail:
          case FaultKind::EciLinkFlap: {
            if (!fabric_)
                break;
            // The link schedules its own per-direction events; the
            // CPU-side queue counts the injection.
            auto &link =
                fabric_->link(s.target % fabric_->linkCount());
            EventQueue &q = link.sendQueue(mem::NodeId::Cpu);
            addStage(q);
            q.schedule(s.at, [this, &q, k = s.kind]() { count(q, k); },
                       "fault-count");
            if (s.kind == FaultKind::EciLinkFlap) {
                link.flap(s.at, units::us(std::max(s.param, 0.5)));
                break;
            }
            const std::uint32_t before = link.lanes();
            link.failLanes(s.at, static_cast<std::uint32_t>(s.param));
            if (s.until > s.at)
                link.restoreLanes(s.until, before);
            break;
          }
          case FaultKind::DramEccCorrectable:
          case FaultKind::DramEccUncorrectable: {
            const std::size_t node = s.target % 2;
            if (!drams_[node])
                break;
            auto &cfg = eccNow_[node];
            openWindow(drams_[node]->channel(0).eventq(), s, true,
                       s.kind == FaultKind::DramEccCorrectable
                           ? cfg.correctable_prob
                           : cfg.uncorrectable_prob,
                       [this, node](bool) { applyDramWindows(node); });
            break;
          }
          case FaultKind::NetLoss:
          case FaultKind::NetReorder: {
            if (!tcp_[0])
                break;
            // One window per stack; stack 0's counts the injection.
            for (std::size_t i = 0; i < 2; ++i) {
                NetWindow &w = netNow_[i];
                const bool loss = s.kind == FaultKind::NetLoss;
                // A reorder window sets the delay when it opens.
                const double delay = loss ? 0.0 : s.param;
                openWindow(tcp_[i]->eventq(), s, i == 0,
                           loss ? w.drop : w.reorder,
                           [this, i, &w, delay](bool open) {
                               if (open && delay > 0.0)
                                   w.reorderDelayUs = delay;
                               applyNetWindow(i);
                           });
            }
            break;
          }
          case FaultKind::RdmaDrop: {
            if (!rdmaIni_)
                break;
            // The initiator's window counts the injection.
            openWindow(rdmaIni_->eventq(), s, true, rdmaDropNow_[0],
                       [this](bool) { applyRdmaWindow(0); });
            openWindow(rdmaTgt_->eventq(), s, false, rdmaDropNow_[1],
                       [this](bool) { applyRdmaWindow(1); });
            break;
          }
          case FaultKind::BmcRailGlitch: {
            if (!bmc_)
                break;
            const bool cpu = s.target % 2 == 0;
            const char *rail = cpu ? cpuRails[bmcRng_.below(4)]
                                   : fpgaRails[bmcRng_.below(4)];
            glitchRails_.emplace_back(rail);
            haveGlitch = true;
            bmcAt = std::max(bmcAt, s.at);
            break;
          }
        }
    }
    if (haveGlitch)
        scheduleBmcPowerUp(bmcAt);

    if (sched_) {
        staged_.assign(queues_.size(), Counts{});
        sched_->addBarrierTask([this] { foldStagedCounts(); });
    } else if (queues_.size() > 1) {
        fatal("fault injector '%s': faulted components run on %zu "
              "queues but no scheduler joins them (attach the ECI "
              "fabric of the sharded machine)",
              name().c_str(), queues_.size());
    }
    armed_ = true;
}

void
FaultInjector::scheduleBmcPowerUp(Tick at)
{
    // Rail glitches need a powered board: sequence standby, then both
    // domains, then run the glitches strictly one after another so
    // power cycles of a domain never overlap. Everything runs on the
    // BMC's queue.
    EventQueue &q = bmc_->eventq();
    addStage(q);
    q.schedule(
        std::max(at, q.now() + units::us(1.0)),
        [this, &q]() {
            const Tick standby = bmc_->domainUp(bmc::Domain::Standby)
                                     ? q.now()
                                     : bmc_->commonPowerUp();
            q.schedule(
                standby + units::us(1.0),
                [this, &q]() {
                    Tick ready = q.now();
                    if (!bmc_->domainUp(bmc::Domain::Cpu))
                        ready = std::max(ready, bmc_->cpuPowerUp());
                    if (!bmc_->domainUp(bmc::Domain::Fpga))
                        ready = std::max(ready, bmc_->fpgaPowerUp());
                    q.schedule(
                        ready + units::us(1.0),
                        [this]() { runNextGlitch(0); },
                        "fault-bmc-glitches");
                },
                "fault-bmc-domains-up");
        },
        "fault-bmc-power-up");
}

void
FaultInjector::runNextGlitch(std::size_t i)
{
    if (i >= glitchRails_.size())
        return;
    count(bmc_->eventq(), FaultKind::BmcRailGlitch);
    const Tick settled = bmc_->injectRailGlitch(glitchRails_[i]);
    bmc_->eventq().schedule(
        settled + units::us(10.0),
        [this, i]() { runNextGlitch(i + 1); }, "fault-bmc-next-glitch");
}

std::uint64_t
FaultInjector::injectedTotal() const
{
    std::uint64_t total = 0;
    for (const auto &c : injected_)
        total += c.value();
    return total;
}

std::string
FaultInjector::report() const
{
    std::ostringstream os;
    os << "fault plan seed " << plan_.seed << ", "
       << plan_.faults.size() << " spec(s)\n";
    for (std::size_t k = 0; k < faultKindCount; ++k) {
        if (injected_[k].value() == 0)
            continue;
        os << "  " << toString(static_cast<FaultKind>(k)) << ": "
           << injected_[k].value() << " injected\n";
    }
    if (fabric_) {
        std::uint64_t dropped = 0, corrupted = 0, retrains = 0,
                      lost = 0;
        for (std::uint32_t i = 0; i < fabric_->linkCount(); ++i) {
            auto &l = fabric_->link(i);
            dropped += l.messagesDropped();
            corrupted += l.messagesCorrupted();
            retrains += l.retrains();
            lost += l.creditsReconciled();
        }
        os << "  eci: " << dropped << " dropped, " << corrupted
           << " corrupted, " << retrains << " retrain(s), " << lost
           << " lost in flaps\n";
        os << "  eci recovery: "
           << remotes_[0]->retriesSent() + remotes_[1]->retriesSent()
           << " request retries, "
           << homes_[0]->responsesReplayed() +
                  homes_[1]->responsesReplayed()
           << " replays, "
           << homes_[0]->snoopRetries() + homes_[1]->snoopRetries()
           << " snoop retries\n";
    }
    if (drams_[0]) {
        std::uint64_t corr = 0, uncorr = 0;
        for (auto *d : drams_) {
            for (std::uint32_t i = 0; i < d->channelCount(); ++i) {
                corr += d->channel(i).eccCorrectable();
                uncorr += d->channel(i).eccUncorrectable();
            }
        }
        os << "  dram: " << corr << " correctable, " << uncorr
           << " uncorrectable (all scrubbed/retried)\n";
    }
    if (tcp_[0]) {
        os << "  tcp: "
           << tcp_[0]->segmentsDropped() + tcp_[1]->segmentsDropped()
           << " dropped, "
           << tcp_[0]->segmentsReordered() +
                  tcp_[1]->segmentsReordered()
           << " reordered, "
           << tcp_[0]->retransmits() + tcp_[1]->retransmits()
           << " retransmits\n";
    }
    if (rdmaIni_) {
        os << "  rdma: " << rdmaIni_->requestsDropped()
           << " requests dropped, " << rdmaTgt_->responsesDropped()
           << " responses dropped, " << rdmaIni_->retriesSent()
           << " retries\n";
    }
    if (bmc_) {
        os << "  bmc: " << bmc_->railGlitches() << " glitch(es), "
           << bmc_->railRecoveries() << " recovered\n";
    }
    return os.str();
}

} // namespace enzian::fault
