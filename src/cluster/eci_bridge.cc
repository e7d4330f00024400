/**
 * @file
 * Coherence bridge implementation.
 */

#include "cluster/eci_bridge.hh"

#include <cstring>

#include "base/logging.hh"

namespace enzian::cluster {

namespace {

constexpr std::uint32_t bridgeHeaderBytes = 48;

} // namespace

EciBridgeTarget::EciBridgeTarget(std::string name, EventQueue &eq,
                                 net::Switch &sw,
                                 eci::RemoteAgent &agent,
                                 const Config &cfg)
    : SimObject(std::move(name), eq), sw_(sw), agent_(agent), cfg_(cfg)
{
    sw_.setEndpoint(cfg_.port, [this](Tick, net::Frame &&frame) {
        eventq().scheduleDelta(
            units::ns(cfg_.proc_ns),
            [this, body = std::move(frame.body)]() mutable {
                serve(std::move(body.get<WireOp>()));
            },
            "bridge-serve");
    });
    stats().addCounter("lines_served", &served_);
}

void
EciBridgeTarget::serve(WireOp &&wop)
{
    served_.inc();
    auto op = std::make_shared<WireOp>(std::move(wop));
    const Addr line = cfg_.export_base + op->line;
    auto respond = [this, op](Tick) {
        sw_.sendFrom(cfg_.port,
                     net::makeFrame(bridgeHeaderBytes + op->data.size(),
                                    op->srcPort, std::move(*op)));
    };
    if (op->write) {
        agent_.writeLineUncached(line, op->data.data(),
                                 [op, respond](Tick t) {
                                     op->data.clear(); // ack: no data
                                     respond(t);
                                 });
    } else {
        op->data.assign(cache::lineSize, 0);
        agent_.readLineUncached(line, op->data.data(), respond);
    }
}

EciBridgeSource::EciBridgeSource(std::string name, EventQueue &eq,
                                 net::Switch &sw,
                                 eci::LineSource &fallback,
                                 EciBridgeTarget &target,
                                 const Config &cfg)
    : SimObject(std::move(name), eq), sw_(sw), fallback_(fallback),
      target_(target), cfg_(cfg)
{
    ENZIAN_ASSERT(cache::isLineAligned(cfg_.window_base),
                  "bridge window must be line aligned");
    sw_.setEndpoint(cfg_.port, [this](Tick when, net::Frame &&frame) {
        onFrame(when, std::move(frame));
    });
    stats().addCounter("lines_bridged", &bridged_);
}

void
EciBridgeSource::issue(Tick when, EciBridgeTarget::WireOp op, Pending p,
                       const char *what)
{
    bridged_.inc();
    op.id = nextId_++;
    op.srcPort = cfg_.port;
    pending_[op.id] = std::move(p);
    net::Payload body;
    body.emplace<EciBridgeTarget::WireOp>(std::move(op));
    // The request leaves when the home pipeline hands it over.
    eventq().schedule(
        std::max(when, now()),
        [this, body = std::move(body)]() mutable {
            const std::uint64_t bytes =
                bridgeHeaderBytes +
                body.get<EciBridgeTarget::WireOp>().data.size();
            sw_.sendFrom(cfg_.port, net::Frame{bytes,
                                               target_.config().port,
                                               std::move(body)});
        },
        what);
}

void
EciBridgeSource::readLine(Tick when, Addr addr, std::uint8_t *out,
                          Done done)
{
    if (!inWindow(addr)) {
        fallback_.readLine(when, addr, out, std::move(done));
        return;
    }
    EciBridgeTarget::WireOp op;
    op.line = addr - cfg_.window_base;
    issue(when, std::move(op), Pending{out, std::move(done)},
          "bridge-read-req");
}

void
EciBridgeSource::writeLine(Tick when, Addr addr,
                           const std::uint8_t *data, Done done)
{
    if (!inWindow(addr)) {
        fallback_.writeLine(when, addr, data, std::move(done));
        return;
    }
    EciBridgeTarget::WireOp op;
    op.write = true;
    op.line = addr - cfg_.window_base;
    op.data.assign(data, data + cache::lineSize);
    issue(when, std::move(op), Pending{nullptr, std::move(done)},
          "bridge-write-req");
}

void
EciBridgeSource::onFrame(Tick when, net::Frame &&frame)
{
    auto &op = frame.body.get<EciBridgeTarget::WireOp>();
    auto it = pending_.find(op.id);
    ENZIAN_ASSERT(it != pending_.end(),
                  "bridge completion for unknown id %llu",
                  static_cast<unsigned long long>(op.id));
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (p.out) {
        ENZIAN_ASSERT(op.data.size() == cache::lineSize,
                      "bridge read without payload");
        std::memcpy(p.out, op.data.data(), cache::lineSize);
    }
    p.done(when);
}

} // namespace enzian::cluster
