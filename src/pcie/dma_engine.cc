/**
 * @file
 * DMA engine implementation.
 */

#include "pcie/dma_engine.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "obs/span_tracer.hh"

namespace enzian::pcie {

DmaEngine::DmaEngine(std::string name, EventQueue &eq, PcieLink &link,
                     mem::MemoryController &host,
                     mem::MemoryController &device, const Config &cfg)
    : SimObject(std::move(name), eq), cfg_(cfg), link_(link),
      host_(host), device_(device)
{
    stats().addCounter("transfers", &xfers_);
    stats().addCounter("bytes", &bytes_);
    stats().addAccumulator("latency_ns", &latency_);
}

Tick
DmaEngine::setupTicks() const
{
    return units::ns(cfg_.doorbell_ns) +
           units::ns(cfg_.descriptor_fetch_ns) +
           units::ns(cfg_.engine_setup_ns);
}

Tick
DmaEngine::transferLatency(std::uint64_t len) const
{
    const std::uint64_t wire =
        wireBytesFor(len, link_.config().max_payload);
    return setupTicks() +
           units::transferTicks(wire, link_.wireBandwidth()) +
           link_.latency();
}

void
DmaEngine::bindDomains(sim::DomainScheduler &sched,
                       sim::TimingDomain &engine_domain,
                       sim::TimingDomain &host_domain)
{
    ENZIAN_ASSERT(&engine_domain.queue() == &eventq() &&
                      &device_.eventq() == &eventq() &&
                      &host_domain.queue() == &host_.eventq(),
                  "DMA engine '%s': domains do not match its queues",
                  name().c_str());
    // The forward crossing lands at the transfer's start: at least
    // one setup (idle engine) or per-descriptor time (busy engine)
    // after issue, so both must cover the channel's lookahead.
    ENZIAN_ASSERT(std::min(setupTicks(),
                           units::ns(cfg_.per_descriptor_ns)) >=
                      link_.latency(),
                  "DMA engine '%s': descriptor time below the PCIe "
                  "link latency",
                  name().c_str());
    dirBind_.bind(sched, engine_domain, host_domain, link_.latency());
}

void
DmaEngine::transfer(Addr src_off, Addr dst_off, std::uint64_t len,
                    bool to_host, Done done)
{
    xfers_.inc();

    // Timing. The first transfer in a quiet engine pays the full
    // setup; pipelined transfers are gated by per-descriptor
    // processing plus link occupancy.
    Tick start;
    if (engineFreeAt_ <= now()) {
        start = now() + setupTicks();
    } else {
        start = engineFreeAt_ + units::ns(cfg_.per_descriptor_ns);
    }
    engineFreeAt_ = std::max(engineFreeAt_, start);
    bytes_.inc(len);
    if (dirBind_.crossDomain()) {
        // The host's half runs in its own domain (see the file
        // comment); the wire and device DRAM are timed here.
        HostLeg leg;
        leg.toHost = to_host;
        leg.hostOff = to_host ? dst_off : src_off;
        leg.devOff = to_host ? src_off : dst_off;
        leg.len = len;
        leg.issued = now();
        leg.start = start;
        leg.engineDone = std::max(link_.transfer(start, len, to_host),
                                  device_.dram().access(start, len));
        if (to_host) {
            leg.data.resize(len);
            device_.store().read(src_off, leg.data.data(), len);
        }
        leg.done = std::move(done);
        dirBind_.channel(0)->push(
            start, [this, leg = std::move(leg)]() mutable {
                serveHost(std::move(leg));
            });
        return;
    }

    // Functional copy.
    mem::MemoryController &src = to_host ? device_ : host_;
    mem::MemoryController &dst = to_host ? host_ : device_;
    std::vector<std::uint8_t> buf(len);
    src.store().read(src_off, buf.data(), len);
    dst.store().write(dst_off, buf.data(), len);

    // The three stages (source DRAM, wire, destination DRAM) stream
    // concurrently chunk by chunk; the slowest stage dominates.
    const Tick src_done = src.dram().access(start, len);
    const Tick wire_done = link_.transfer(start, len, to_host);
    const Tick dst_done = dst.dram().access(start, len);
    const Tick complete =
        std::max(src_done, std::max(wire_done, dst_done));
    latency_.sample(units::toNanos(complete - now()));
    ENZIAN_SPAN(name(), to_host ? "d2h" : "h2d", now(), complete);

    eventq().schedule(
        complete, [done = std::move(done), complete]() { done(complete); },
        "dma-done");
}

void
DmaEngine::serveHost(HostLeg &&leg)
{
    const Tick host_done = host_.dram().access(leg.start, leg.len);
    if (leg.toHost) {
        host_.store().write(leg.hostOff, leg.data.data(), leg.len);
    } else {
        leg.data.resize(leg.len);
        host_.store().read(leg.hostOff, leg.data.data(), leg.len);
    }
    // complete >= wire done >= start + link latency, so the crossing
    // back keeps the channel's lookahead.
    const Tick complete = std::max(host_done, leg.engineDone);
    dirBind_.channel(1)->push(
        complete, [this, complete, leg = std::move(leg)]() mutable {
            finish(std::move(leg), complete);
        });
}

void
DmaEngine::finish(HostLeg &&leg, Tick complete)
{
    if (!leg.toHost)
        device_.store().write(leg.devOff, leg.data.data(), leg.len);
    latency_.sample(units::toNanos(complete - leg.issued));
    ENZIAN_SPAN(name(), leg.toHost ? "d2h" : "h2d", leg.issued, complete);
    leg.done(complete);
}

void
DmaEngine::hostToDevice(Addr host_off, Addr dev_off, std::uint64_t len,
                        Done done)
{
    transfer(host_off, dev_off, len, /*to_host=*/false, std::move(done));
}

void
DmaEngine::deviceToHost(Addr dev_off, Addr host_off, std::uint64_t len,
                        Done done)
{
    transfer(dev_off, host_off, len, /*to_host=*/true, std::move(done));
}

} // namespace enzian::pcie
