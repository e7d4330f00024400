/**
 * @file
 * Switch implementation.
 */

#include "net/switch.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::net {

namespace {

EthernetLink::Config
portConfig(const Switch::Config &cfg, std::uint32_t port_no)
{
    EthernetLink::Config pc = cfg.port;
    if (port_no < cfg.port_latency_ns.size() &&
        cfg.port_latency_ns[port_no] > 0.0)
        pc.latency_ns = cfg.port_latency_ns[port_no];
    return pc;
}

} // namespace

Switch::Switch(std::string name, EventQueue &eq, std::uint32_t ports,
               const Config &cfg)
    : SimObject(std::move(name), eq), cfg_(cfg)
{
    if (ports < 2)
        fatal("switch '%s' needs at least 2 ports",
              SimObject::name().c_str());
    fabric_.init(
        eq,
        [this](Tick, Frame &&frame) {
            const std::uint32_t dst = frame.dst;
            ports_[dst]->send(1, std::move(frame));
        },
        "switch-forward");
    for (std::uint32_t i = 0; i < ports; ++i) {
        ports_.push_back(std::make_unique<EthernetLink>(
            SimObject::name() + ".port" + std::to_string(i), eq,
            portConfig(cfg_, i)));
        // Side 1 of each port link faces the switch fabric: forward
        // arriving frames to the destination port after the
        // store-and-forward delay.
        ports_[i]->setReceiver(1, [this](Tick, Frame &&frame) {
            ENZIAN_ASSERT(frame.dst < ports_.size(),
                          "frame for unknown port %u", frame.dst);
            fabric_.push(now() + units::ns(cfg_.forward_ns),
                         std::move(frame));
        });
    }
}

Tick
Switch::minCrossLatency(const Config &cfg, std::uint32_t ports)
{
    Tick floor = EthernetLink::minCrossLatency(cfg.port);
    for (std::uint32_t i = 0; i < ports; ++i) {
        floor = std::min(
            floor, EthernetLink::minCrossLatency(portConfig(cfg, i)));
    }
    return floor;
}

void
Switch::bindDomains(sim::DomainScheduler &sched,
                    sim::TimingDomain &net_domain,
                    const std::vector<sim::TimingDomain *> &port_domains)
{
    ENZIAN_ASSERT(&net_domain.queue() == &eventq(),
                  "switch '%s' must be constructed on the net "
                  "domain's queue",
                  name().c_str());
    ENZIAN_ASSERT(port_domains.size() == ports_.size(),
                  "switch '%s': %zu port domains for %zu ports",
                  name().c_str(), port_domains.size(), ports_.size());
    for (std::size_t i = 0; i < ports_.size(); ++i) {
        ENZIAN_ASSERT(port_domains[i], "switch '%s': null domain for "
                      "port %zu",
                      name().c_str(), i);
        ports_[i]->bindDomains(sched, *port_domains[i], net_domain);
    }
}

void
Switch::setEndpoint(std::uint32_t port_no, EthernetLink::Handler h)
{
    ports_.at(port_no)->setReceiver(0, std::move(h));
}

Tick
Switch::sendFrom(std::uint32_t port_no, Frame frame)
{
    return ports_.at(port_no)->send(0, std::move(frame));
}

} // namespace enzian::net
