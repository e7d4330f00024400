/**
 * @file
 * Coherence bridge implementation.
 */

#include "cluster/eci_bridge.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"

namespace enzian::cluster {

EciBridgeTarget::EciBridgeTarget(std::string name, EventQueue &eq,
                                 net::Switch &sw,
                                 eci::RemoteAgent &agent,
                                 const Config &cfg)
    : cfg_(cfg), path_(agent, cfg.export_base),
      rdma_(std::move(name), eq, sw, path_,
            net::RdmaTarget::Config{cfg.port, cfg.proc_ns})
{
}

EciBridgeSource::EciBridgeSource(std::string name, EventQueue &eq,
                                 net::Switch &sw,
                                 eci::LineSource &fallback,
                                 EciBridgeTarget &target,
                                 const Config &cfg)
    : SimObject(name, eq), fallback_(fallback), cfg_(cfg),
      rdma_(name + ".rdma", eq, sw, cfg.port, target.config().port)
{
    ENZIAN_ASSERT(cache::isLineAligned(cfg_.window_base),
                  "bridge window must be line aligned");
    stats().addCounter("lines_bridged", &bridged_);
}

void
EciBridgeSource::readLine(Tick when, Addr addr, std::uint8_t *out,
                          Done done)
{
    if (!inWindow(addr)) {
        fallback_.readLine(when, addr, out, std::move(done));
        return;
    }
    bridged_.inc();
    // The request leaves when the home pipeline hands it over.
    eventq().schedule(
        std::max(when, now()),
        [this, off = addr - cfg_.window_base, out,
         done = std::move(done)]() mutable {
            rdma_.read(off, out, cache::lineSize, std::move(done));
        },
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
    bridged_.inc();
    eventq().schedule(
        std::max(when, now()),
        [this, off = addr - cfg_.window_base,
         line = std::vector<std::uint8_t>(data, data + cache::lineSize),
         done = std::move(done)]() mutable {
            rdma_.write(off, line.data(), line.size(), std::move(done));
        },
        "bridge-write-req");
}

} // namespace enzian::cluster
