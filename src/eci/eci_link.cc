/**
 * @file
 * ECI link and fabric implementation.
 */

#include "eci/eci_link.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/span_tracer.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::eci {

EciLink::EciLink(std::string name, EventQueue &eq, const Config &cfg)
    : SimObject(std::move(name), eq), cfg_(cfg)
{
    setLanes(cfg_.lanes);
    for (auto &wire : wire_) {
        wire.init(
            eq, [this](Tick when, Flight &&f) { deliver(when, f); },
            "eci-deliver");
    }
    stats().addCounter("messages", &agg_.msgs);
    stats().addCounter("bytes", &agg_.bytes);
    stats().addCounter("fault_dropped", &agg_.dropped);
    stats().addCounter("fault_corrupted", &agg_.corrupted);
    stats().addCounter("lane_failures", &laneFails_);
    stats().addCounter("link_flaps", &flaps_);
    stats().addCounter("retrains", &retrains_);
    stats().addCounter("credits_reconciled", &agg_.lost);
    stats().addAccumulator("latency_ns", &agg_.latency);
    stats().addAccumulator("ser_wait_ns", &agg_.serWait);
    stats().addHistogram("latency_hist_ns", &agg_.hist);
    for (std::uint32_t vc = 0; vc < vcCount; ++vc) {
        stats().addAccumulator(
            format("vc_%s_latency_ns", toString(static_cast<Vc>(vc))),
            &agg_.vcLatency[vc]);
    }
}

Tick
EciLink::minCrossLatency(const Config &cfg)
{
    // Same sum in both directions: sender engine + wire + receiver
    // engine. Stream (serialization) time is excluded — it only adds
    // latency, so excluding it stays conservative.
    return units::ns(cfg.cpu_proc_ns + cfg.wire_latency_ns +
                     cfg.fpga_proc_ns);
}

void
EciLink::bindDomains(sim::DomainScheduler &sched,
                     sim::TimingDomain &cpu_domain,
                     sim::TimingDomain &fpga_domain)
{
    ENZIAN_ASSERT(sched.lookahead() <= minCrossLatency(cfg_),
                  "scheduler lookahead exceeds the latency floor of "
                  "link '%s'",
                  name().c_str());
    ENZIAN_ASSERT(!domainMode(), "link '%s' already bound to domains",
                  name().c_str());
    stage_.arm();
    // The channel pair carries this link's own latency floor, not the
    // scheduler's global minimum: per-pair lookahead is what lets the
    // adaptive scheduler stretch epochs on slower paths.
    static_assert(static_cast<std::size_t>(mem::NodeId::Cpu) == 0 &&
                      static_cast<std::size_t>(mem::NodeId::Fpga) == 1,
                  "direction indexing assumes Cpu=0 / Fpga=1");
    dirBind_.bind(sched, cpu_domain, fpga_domain,
                  minCrossLatency(cfg_));
    for (std::size_t dir = 0; dir < wire_.size(); ++dir)
        wire_[dir].bind(dirBind_, dir);
    sched.addBarrierTask([this] { foldDomainState(); });
}

void
EciLink::TxStats::foldInto(TxStats &agg)
{
    if (msgs.value() == 0 && lost.value() == 0) {
        // Every recorded send bumps msgs first (see recordTx and
        // sendFaulted), and every other sample is a send's, except a
        // flap loss; so an idle stage has nothing to fold. Most
        // stages of a rack are idle in most epochs.
        bool empty = bytes.value() == 0 && dropped.value() == 0 &&
                     corrupted.value() == 0 && latency.count() == 0 &&
                     serWait.count() == 0 && hist.count() == 0;
        for (const Accumulator &a : vcLatency)
            empty = empty && a.count() == 0;
        ENZIAN_ASSERT(empty, "ECI tx stage holds samples but no msgs");
        return;
    }
    agg.msgs.inc(msgs.value());
    agg.bytes.inc(bytes.value());
    agg.dropped.inc(dropped.value());
    agg.corrupted.inc(corrupted.value());
    agg.lost.inc(lost.value());
    agg.latency.merge(latency);
    agg.serWait.merge(serWait);
    agg.hist.merge(hist);
    for (std::size_t vc = 0; vc < vcLatency.size(); ++vc)
        agg.vcLatency[vc].merge(vcLatency[vc]);
    msgs.reset();
    bytes.reset();
    dropped.reset();
    corrupted.reset();
    lost.reset();
    latency.reset();
    serWait.reset();
    hist.reset();
    for (auto &a : vcLatency)
        a.reset();
}

void
EciLink::foldDomainState()
{
    // Direction 0 (CPU-sourced) folds first, always: the aggregate is
    // then independent of which thread ran which domain.
    stage_.fold([this](TxStats &s) { s.foldInto(agg_); });
    flushTaps();
}

void
EciLink::flushTaps()
{
    auto &a = tapStage_[0];
    auto &b = tapStage_[1];
    if (a.empty() && b.empty())
        return;
    if (!taps_.empty()) {
        // Each stage is sorted by send tick already (sends within a
        // domain are monotone); merge with ties broken toward
        // direction 0 for a fixed observation order.
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < a.size() || j < b.size()) {
            const bool take_a =
                j >= b.size() ||
                (i < a.size() && a[i].first <= b[j].first);
            const auto &e = take_a ? a[i] : b[j];
            for (const Tap &t : taps_)
                t(e.first, e.second);
            if (take_a)
                ++i;
            else
                ++j;
        }
    }
    a.clear();
    b.clear();
}

void
EciLink::setDirLanes(std::size_t dir, std::uint32_t lanes)
{
    if (lanes == 0)
        fatal("ECI link '%s': zero lanes", name().c_str());
    tx_[dir].lanes = lanes;
    tx_[dir].effBw =
        lanes * (cfg_.lane_gbps * 1e9 / 8.0) * cfg_.efficiency;
}

void
EciLink::setLanes(std::uint32_t lanes)
{
    for (std::size_t dir = 0; dir < tx_.size(); ++dir)
        setDirLanes(dir, lanes);
}

EventQueue &
EciLink::sendQueue(mem::NodeId src)
{
    return dirBind_.bound() ? dirBind_.clock(static_cast<std::size_t>(src))
                            : eventq();
}

void
EciLink::setReceiver(mem::NodeId node, Handler h)
{
    handlers_[static_cast<std::size_t>(node)] = std::move(h);
}

Tick
EciLink::procLatency(mem::NodeId node) const
{
    return node == mem::NodeId::Cpu ? units::ns(cfg_.cpu_proc_ns)
                                    : units::ns(cfg_.fpga_proc_ns);
}

Tick
EciLink::busFreeAt(mem::NodeId src_node) const
{
    return tx_[static_cast<std::size_t>(src_node)].busFreeAt;
}

EciLink::TxTiming
EciLink::txTiming(Tick tnow, const EciMsg &msg)
{
    // Sender-side processing, then wait for the serializer, stream the
    // message out, cross the wire, then receiver-side processing.
    DirTx &d = tx_[static_cast<std::size_t>(msg.src)];
    TxTiming t;
    t.serReady = tnow + procLatency(msg.src);
    t.start = std::max(t.serReady, d.busFreeAt);
    t.stream = units::transferTicks(msg.wireBytes(), d.effBw);
    d.busFreeAt = t.start + t.stream;
    t.delivery = t.start + t.stream + units::ns(cfg_.wire_latency_ns) +
                 procLatency(msg.dst);
    return t;
}

void
EciLink::recordTx(std::size_t dir, Tick tnow, const EciMsg &msg,
                  const TxTiming &t)
{
    // msgs is bumped before any other sample, here and in
    // sendFaulted: TxStats::foldInto skips a stage with msgs == 0.
    TxStats &s = txStats(dir);
    s.msgs.inc();
    s.bytes.inc(msg.wireBytes());
    const double lat_ns = units::toNanos(t.delivery - tnow);
    s.latency.sample(lat_ns);
    s.hist.sample(lat_ns);
    s.serWait.sample(units::toNanos(t.start - t.serReady));
    s.vcLatency[static_cast<std::size_t>(vcOf(msg.op))].sample(lat_ns);
}

Tick
EciLink::send(const EciMsg &msg)
{
    // A link joins two nodes: every message crosses to the other one.
    ENZIAN_ASSERT(msg.dst != msg.src, "node %s sent itself a message "
                  "on %s", mem::toString(msg.src), name().c_str());
    // Domain mode: time comes from the sending direction's domain
    // clock, and that direction's thread is the single writer of its
    // serializer, stats stage and tap stage.
    const auto dir = static_cast<std::size_t>(msg.src);
    const Tick tnow = sendQueue(msg.src).now();
    if (fault_) {
        const FaultAction act = fault_(tnow, msg);
        if (act != FaultAction::Deliver)
            return sendFaulted(tnow, msg, act);
    }
    if (domainMode()) {
        if (!taps_.empty())
            tapStage_[dir].emplace_back(tnow, msg);
    } else {
        for (const Tap &tap : taps_)
            tap(tnow, msg);
    }

    const TxTiming t = txTiming(tnow, msg);
    recordTx(dir, tnow, msg, t);
    ENZIAN_SPAN(name(), toString(msg.op), t.start, t.delivery);

    Handler &h = handlers_[static_cast<std::size_t>(msg.dst)];
    ENZIAN_ASSERT(h, "no receiver registered for node %s on %s",
                  mem::toString(msg.dst), name().c_str());

    wire_[dir].push(t.delivery, Flight{tnow, msg});
    return t.delivery;
}

void
EciLink::deliver(Tick when, const Flight &f)
{
    const auto dst = static_cast<std::size_t>(f.msg.dst);
    if (!flapTicks_.empty()) {
        // The first flap after the send decides: the link went down
        // under the message iff that flap came before its arrival. The
        // receiver counts the loss in the stage of the direction it
        // sends on, which only its own domain touches; the credit
        // machinery reconciles it and the agents' retry timers
        // re-issue the requests.
        const auto flap = std::upper_bound(flapTicks_.begin(),
                                           flapTicks_.end(), f.sent);
        if (flap != flapTicks_.end() && *flap <= when) {
            txStats(dst).lost.inc();
            return;
        }
    }
    handlers_[dst](f.msg);
}

Tick
EciLink::sendFaulted(Tick tnow, const EciMsg &msg, FaultAction act)
{
    // The bits still went out: the serializer is occupied as usual.
    // A corrupted message reaches the far side but fails its CRC and
    // is discarded there, which is operationally identical to a drop;
    // we account the two separately. Neither reaches the tap — a real
    // capture would never see the message arrive.
    const TxTiming t = txTiming(tnow, msg);
    const Tick end = t.start + t.stream;
    TxStats &s = txStats(static_cast<std::size_t>(msg.src));
    s.msgs.inc();
    s.bytes.inc(msg.wireBytes());
    if (act == FaultAction::Drop) {
        s.dropped.inc();
        ENZIAN_SPAN(name(), "fault-drop", t.start, end);
    } else {
        s.corrupted.inc();
        ENZIAN_SPAN(name(), "fault-corrupt", t.start, end);
    }
    return end;
}

void
EciLink::onEachDir(Tick at, const char *what,
                   std::function<void(std::size_t)> fn)
{
    // Direction 0 first: on one queue both events run back to back.
    for (std::size_t dir = 0; dir < tx_.size(); ++dir) {
        sendQueue(static_cast<mem::NodeId>(dir))
            .schedule(at, [fn, dir]() { fn(dir); }, what);
    }
}

void
EciLink::failLanes(Tick at, std::uint32_t n)
{
    onEachDir(at, "eci-lane-fail", [this, n](std::size_t dir) {
        const std::uint32_t lanes = tx_[dir].lanes;
        const std::uint32_t survivors = lanes > n ? lanes - n : 1;
        if (dir == 0) {
            laneFails_.inc();
            logWarn("lane failure: %u lane(s) down, retraining to %u "
                    "lanes",
                    n, survivors);
        }
        setDirLanes(dir, survivors);
        beginRetrain(dir, units::ns(cfg_.retrain_ns));
    });
}

void
EciLink::restoreLanes(Tick at, std::uint32_t lanes)
{
    onEachDir(at, "eci-lane-restore", [this, lanes](std::size_t dir) {
        if (dir == 0)
            logInfo("restoring link to %u lanes", lanes);
        setDirLanes(dir, lanes);
        beginRetrain(dir, units::ns(cfg_.retrain_ns));
    });
}

void
EciLink::flap(Tick at, Tick down_time)
{
    // Receivers read the flap ticks on every delivery, so they are
    // fixed before the run; the senders only retrain.
    flapTicks_.insert(
        std::upper_bound(flapTicks_.begin(), flapTicks_.end(), at), at);
    onEachDir(at, "eci-link-flap", [this, down_time](std::size_t dir) {
        if (dir == 0) {
            flaps_.inc();
            logWarn("link flap: down %.1f us",
                    units::toNanos(down_time) / 1e3);
        }
        beginRetrain(dir, down_time + units::ns(cfg_.retrain_ns));
    });
}

void
EciLink::beginRetrain(std::size_t dir, Tick duration)
{
    DirTx &d = tx_[dir];
    const Tick tnow = sendQueue(static_cast<mem::NodeId>(dir)).now();
    d.retrainEndsAt = std::max(d.retrainEndsAt, tnow + duration);
    // No traffic serializes until the lanes are aligned again.
    d.busFreeAt = std::max(d.busFreeAt, d.retrainEndsAt);
    if (dir == 0) {
        retrains_.inc();
        ENZIAN_SPAN(name(), "retrain", tnow, d.retrainEndsAt);
    }
}

const char *
toString(BalancePolicy p)
{
    switch (p) {
      case BalancePolicy::SingleLink:
        return "single-link";
      case BalancePolicy::RoundRobin:
        return "round-robin";
      case BalancePolicy::AddressHash:
        return "address-hash";
      case BalancePolicy::LeastLoaded:
        return "least-loaded";
    }
    return "?";
}

EciFabric::EciFabric(std::string name, EventQueue &eq,
                     const EciLink::Config &link_cfg, std::uint32_t links,
                     BalancePolicy policy)
    : SimObject(std::move(name), eq), policy_(policy)
{
    if (links == 0)
        fatal("EciFabric with zero links");
    for (std::uint32_t i = 0; i < links; ++i) {
        links_.push_back(std::make_unique<EciLink>(
            SimObject::name() + ".link" + std::to_string(i), eq,
            link_cfg));
    }
}

void
EciFabric::setReceiver(mem::NodeId node, EciLink::Handler h)
{
    for (auto &l : links_)
        l->setReceiver(node, h);
}

void
EciFabric::addTap(EciLink::Tap tap)
{
    for (auto &l : links_)
        l->addTap(tap);
}

void
EciFabric::bindDomains(sim::DomainScheduler &sched,
                       sim::TimingDomain &cpu_domain,
                       sim::TimingDomain &fpga_domain)
{
    for (auto &l : links_)
        l->bindDomains(sched, cpu_domain, fpga_domain);
}

std::uint32_t
EciFabric::pickLink(const EciMsg &msg)
{
    const auto n = static_cast<std::uint32_t>(links_.size());
    if (n == 1)
        return 0;
    switch (policy_) {
      case BalancePolicy::SingleLink:
        return 0;
      case BalancePolicy::RoundRobin:
        // One counter per direction, so in domain mode the two
        // sending domains never share mutable state.
        return rrDir_[static_cast<std::size_t>(msg.src)]++ % n;
      case BalancePolicy::AddressHash: {
        // Mix the line address so striding patterns spread evenly.
        std::uint64_t x = msg.addr / cache::lineSize;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        return static_cast<std::uint32_t>(x % n);
      }
      case BalancePolicy::LeastLoaded: {
        std::uint32_t best = 0;
        Tick best_free = links_[0]->busFreeAt(msg.src);
        for (std::uint32_t i = 1; i < n; ++i) {
            const Tick f = links_[i]->busFreeAt(msg.src);
            if (f < best_free) {
                best = i;
                best_free = f;
            }
        }
        return best;
      }
    }
    panic("unreachable");
}

Tick
EciFabric::send(const EciMsg &msg)
{
    return links_[pickLink(msg)]->send(msg);
}

double
EciFabric::effectiveBandwidth() const
{
    double sum = 0;
    for (const auto &l : links_)
        sum += l->effectiveBandwidth();
    return sum;
}

} // namespace enzian::eci
