/**
 * @file
 * Ethernet link implementation.
 */

#include "net/ethernet.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::net {

EthernetLink::EthernetLink(std::string name, EventQueue &eq,
                           const Config &cfg)
    : SimObject(std::move(name), eq), cfg_(cfg)
{
    if (cfg_.mtu == 0)
        fatal("ethernet link '%s': zero MTU", SimObject::name().c_str());
    lineBw_ = cfg_.rate_gbps * 1e9 / 8.0;
    for (PortSide from = 0; from < 2; ++from) {
        wire_[from].init(
            eq,
            [this, from](Tick when, Frame &&frame) {
                handlers_[from ^ 1](when, std::move(frame));
            },
            "eth-deliver");
    }
    stats().addCounter("bytes_tx_0", &bytes_[0]);
    stats().addCounter("bytes_tx_1", &bytes_[1]);
}

Tick
EthernetLink::minCrossLatency(const Config &cfg)
{
    // Stream (serialization) time is excluded — it only delays a frame
    // further, so excluding it stays conservative.
    return units::ns(cfg.latency_ns);
}

void
EthernetLink::bindDomains(sim::DomainScheduler &sched,
                          sim::TimingDomain &side0_domain,
                          sim::TimingDomain &side1_domain)
{
    ENZIAN_ASSERT(sched.lookahead() <= minCrossLatency(cfg_),
                  "scheduler lookahead exceeds the latency floor of "
                  "link '%s'",
                  name().c_str());
    ENZIAN_ASSERT(!domainMode(), "link '%s' already bound to domains",
                  name().c_str());
    // Bind with this link's own floor so a long cable buys the
    // scheduler a wide per-pair lookahead even when some other link
    // in the rack pins the global minimum lower.
    dirBind_.bind(sched, side0_domain, side1_domain,
                  minCrossLatency(cfg_));
    for (PortSide from = 0; from < 2; ++from)
        wire_[from].bind(dirBind_, from);
}

void
EthernetLink::setReceiver(PortSide side, Handler h)
{
    ENZIAN_ASSERT(side < 2, "bad port side %u", side);
    handlers_[side] = std::move(h);
}

double
EthernetLink::effectiveBandwidth() const
{
    return lineBw_ * cfg_.mtu / (cfg_.mtu + frameOverheadBytes);
}

Tick
EthernetLink::send(PortSide from, Frame frame)
{
    ENZIAN_ASSERT(from < 2, "bad port side %u", from);
    const PortSide to = from ^ 1;
    const std::uint64_t payload = frame.bytes;
    bytes_[from].inc(payload);

    const std::uint64_t frames =
        payload == 0 ? 1 : (payload + cfg_.mtu - 1) / cfg_.mtu;
    const std::uint64_t wire = payload + frames * frameOverheadBytes;

    // Domain mode: time comes from the sending side's domain clock,
    // and busFreeAt_[from] has that thread as its single writer.
    const Tick tnow = dirBind_.bound() ? dirBind_.now(from) : now();
    const Tick start = std::max(tnow, busFreeAt_[from]);
    const Tick stream = units::transferTicks(wire, lineBw_);
    busFreeAt_[from] = start + stream;
    const Tick delivery = start + stream + units::ns(cfg_.latency_ns);

    ENZIAN_ASSERT(handlers_[to], "no receiver on side %u of %s", to,
                  name().c_str());
    wire_[from].push(delivery, std::move(frame));
    return delivery;
}

} // namespace enzian::net
