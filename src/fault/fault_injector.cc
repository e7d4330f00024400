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
 * Subsystem stream ordinals; mixed into the plan seed with a
 * golden-ratio stride so per-subsystem streams are decorrelated.
 */
constexpr std::uint64_t streamStride = 0x9e3779b97f4a7c15ull;

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t ordinal)
{
    return seed ^ (ordinal * streamStride);
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
      eciRng_(streamSeed(plan.seed, 1)),
      dramRng_(streamSeed(plan.seed, 2)),
      netRng_(streamSeed(plan.seed, 3)),
      rdmaRng_(streamSeed(plan.seed, 4)),
      bmcRng_(streamSeed(plan.seed, 5))
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
    // In domain mode the filter runs concurrently from both domains;
    // each draws only from its own direction's stream and stages its
    // counts for the barrier fold.
    const auto dir = static_cast<std::size_t>(msg.src);
    Rng &rng = domainMode() ? eciDirRng_[dir] : eciRng_;
    for (const auto &s : eciMsgSpecs_) {
        if (t < s.at || (s.until != 0 && t >= s.until))
            continue;
        if (rng.chance(s.prob)) {
            if (domainMode())
                ++stagedCounts_[dir][static_cast<std::size_t>(s.kind)];
            else
                count(s.kind);
            return s.kind == FaultKind::EciMsgDrop
                       ? eci::EciLink::FaultAction::Drop
                       : eci::EciLink::FaultAction::Corrupt;
        }
    }
    return eci::EciLink::FaultAction::Deliver;
}

void
FaultInjector::bindDomains(sim::DomainScheduler &sched)
{
    ENZIAN_ASSERT(!armed_, "bindDomains() must precede arm()");
    stagedCounts_.arm();
    eciDirRng_[0] = Rng(streamSeed(plan_.seed, 16));
    eciDirRng_[1] = Rng(streamSeed(plan_.seed, 17));
    sched.addBarrierTask([this] { foldDomainCounts(); });
}

void
FaultInjector::foldDomainCounts()
{
    // Fixed fold order (direction 0 then 1) so the shared counters
    // are identical for every thread count.
    stagedCounts_.fold([this](std::array<std::uint64_t,
                                         faultKindCount> &dir) {
        for (std::size_t k = 0; k < faultKindCount; ++k) {
            if (dir[k] != 0) {
                injected_[k].inc(dir[k]);
                dir[k] = 0;
            }
        }
    });
}

void
FaultInjector::attachDram(mem::DramSystem &cpu_dram,
                          mem::DramSystem &fpga_dram)
{
    drams_[0] = &cpu_dram;
    drams_[1] = &fpga_dram;
}

void
FaultInjector::applyDramWindows(mem::DramSystem *dram, std::size_t node)
{
    const auto &cfg = eccNow_[node];
    const bool active =
        cfg.correctable_prob > 0.0 || cfg.uncorrectable_prob > 0.0;
    for (std::uint32_t i = 0; i < dram->channelCount(); ++i)
        dram->channel(i).armEcc(active ? &dramRng_ : nullptr, cfg);
}

void
FaultInjector::attachNet(net::TcpStack &a, net::TcpStack &b)
{
    tcp_[0] = &a;
    tcp_[1] = &b;
    if (plan_.hasKind(FaultKind::NetLoss) ||
        plan_.hasKind(FaultKind::NetReorder)) {
        // Recovery must be on before any flow opens.
        a.enableRecovery(netRtoUs);
        b.enableRecovery(netRtoUs);
    }
}

void
FaultInjector::applyNetWindows()
{
    Rng *rng =
        (netDropNow_ > 0.0 || netReorderNow_ > 0.0) ? &netRng_ : nullptr;
    for (auto *stack : tcp_) {
        stack->setLossFaults(rng, netDropNow_, netReorderNow_,
                             netReorderDelayUs_);
    }
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
FaultInjector::applyRdmaWindows()
{
    Rng *rng = rdmaDropNow_ > 0.0 ? &rdmaRng_ : nullptr;
    rdmaIni_->setFaults(rng, rdmaDropNow_);
    rdmaTgt_->setFaults(rng, rdmaDropNow_);
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
    armed_ = true;
    if (domainMode()) {
        // Every other kind mutates state shared across domains (DRAM
        // RNG, link retrain clocks, BMC sequencing) from timeline
        // events on one domain's queue — not safe in parallel runs.
        for (const auto &s : plan_.faults) {
            if (!kindDomainSafe(s.kind)) {
                fatal("fault kind '%s' cannot be armed in parallel "
                      "domain mode (only ECI msg drop/corrupt can)",
                      toString(s.kind));
            }
        }
    }
    Tick bmcAt = 0;
    bool haveGlitch = false;
    for (const auto &s : plan_.faults) {
        switch (s.kind) {
          case FaultKind::EciMsgDrop:
          case FaultKind::EciMsgCorrupt:
            break; // handled by the per-send filter
          case FaultKind::EciLaneFail: {
            if (!fabric_)
                break;
            auto &link =
                fabric_->link(s.target % fabric_->linkCount());
            const auto n = static_cast<std::uint32_t>(s.param);
            const std::uint32_t before = link.lanes();
            eventq().schedule(
                s.at,
                [this, &link, n, kind = s.kind]() {
                    count(kind);
                    link.failLanes(n);
                },
                "fault-lane-fail");
            if (s.until > s.at) {
                eventq().schedule(
                    s.until,
                    [&link, before]() { link.restoreLanes(before); },
                    "fault-lane-restore");
            }
            break;
          }
          case FaultKind::EciLinkFlap: {
            if (!fabric_)
                break;
            auto &link =
                fabric_->link(s.target % fabric_->linkCount());
            const Tick down = units::us(std::max(s.param, 0.5));
            eventq().schedule(
                s.at,
                [this, &link, down, kind = s.kind]() {
                    count(kind);
                    link.flap(down);
                },
                "fault-link-flap");
            break;
          }
          case FaultKind::DramEccCorrectable:
          case FaultKind::DramEccUncorrectable: {
            const std::size_t node = s.target % 2;
            if (!drams_[node])
                break;
            const bool corr = s.kind == FaultKind::DramEccCorrectable;
            eventq().schedule(
                s.at,
                [this, node, corr, p = s.prob, kind = s.kind]() {
                    count(kind);
                    auto &cfg = eccNow_[node];
                    (corr ? cfg.correctable_prob
                          : cfg.uncorrectable_prob) += p;
                    applyDramWindows(drams_[node], node);
                },
                "fault-ecc-on");
            if (s.until > s.at) {
                eventq().schedule(
                    s.until,
                    [this, node, corr, p = s.prob]() {
                        auto &cfg = eccNow_[node];
                        auto &slot = corr ? cfg.correctable_prob
                                          : cfg.uncorrectable_prob;
                        slot = std::max(0.0, slot - p);
                        applyDramWindows(drams_[node], node);
                    },
                    "fault-ecc-off");
            }
            break;
          }
          case FaultKind::NetLoss:
          case FaultKind::NetReorder: {
            if (!tcp_[0])
                break;
            const bool loss = s.kind == FaultKind::NetLoss;
            eventq().schedule(
                s.at,
                [this, loss, p = s.prob, d = s.param,
                 kind = s.kind]() {
                    count(kind);
                    if (loss) {
                        netDropNow_ += p;
                    } else {
                        netReorderNow_ += p;
                        if (d > 0.0)
                            netReorderDelayUs_ = d;
                    }
                    applyNetWindows();
                },
                "fault-net-on");
            if (s.until > s.at) {
                eventq().schedule(
                    s.until,
                    [this, loss, p = s.prob]() {
                        auto &slot =
                            loss ? netDropNow_ : netReorderNow_;
                        slot = std::max(0.0, slot - p);
                        applyNetWindows();
                    },
                    "fault-net-off");
            }
            break;
          }
          case FaultKind::RdmaDrop: {
            if (!rdmaIni_)
                break;
            eventq().schedule(
                s.at,
                [this, p = s.prob, kind = s.kind]() {
                    count(kind);
                    rdmaDropNow_ += p;
                    applyRdmaWindows();
                },
                "fault-rdma-on");
            if (s.until > s.at) {
                eventq().schedule(
                    s.until,
                    [this, p = s.prob]() {
                        rdmaDropNow_ = std::max(0.0, rdmaDropNow_ - p);
                        applyRdmaWindows();
                    },
                    "fault-rdma-off");
            }
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
}

void
FaultInjector::scheduleBmcPowerUp(Tick at)
{
    // Rail glitches need a powered board: sequence standby, then both
    // domains, then run the glitches strictly one after another so
    // power cycles of a domain never overlap.
    eventq().schedule(
        std::max(at, now() + units::us(1.0)),
        [this]() {
            const Tick standby = bmc_->domainUp(bmc::Domain::Standby)
                                     ? now()
                                     : bmc_->commonPowerUp();
            eventq().schedule(
                standby + units::us(1.0),
                [this]() {
                    Tick ready = now();
                    if (!bmc_->domainUp(bmc::Domain::Cpu))
                        ready = std::max(ready, bmc_->cpuPowerUp());
                    if (!bmc_->domainUp(bmc::Domain::Fpga))
                        ready = std::max(ready, bmc_->fpgaPowerUp());
                    eventq().schedule(
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
    count(FaultKind::BmcRailGlitch);
    const Tick settled = bmc_->injectRailGlitch(glitchRails_[i]);
    eventq().schedule(
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
