/**
 * @file
 * Bump-in-the-wire implementation.
 */

#include "net/bump_in_wire.hh"

#include <algorithm>

#include "base/logging.hh"

namespace enzian::net {

BumpInWire::BumpInWire(std::string name, EventQueue &eq,
                       EthernetLink &net_link, EthernetLink &host_link,
                       const Config &cfg)
    : SimObject(std::move(name), eq), netLink_(net_link),
      hostLink_(host_link), cfg_(cfg)
{
    pipe_.init(
        eq,
        [this](Tick, Transit &&t) {
            if (t.toHost)
                hostLink_.send(0, std::move(t.frame)); // FPGA owns side 0
            else
                netLink_.send(1, std::move(t.frame));
        },
        "biw-forward");
    // The FPGA owns side 1 of the switch-facing link and side 0 of
    // the NIC-facing link; frames arriving on either side traverse
    // the inline pipeline to the other.
    netLink_.setReceiver(1, [this](Tick when, Frame &&frame) {
        forward(/*to_host=*/true, when, std::move(frame));
    });
    hostLink_.setReceiver(0, [this](Tick when, Frame &&frame) {
        forward(/*to_host=*/false, when, std::move(frame));
    });
    stats().addCounter("frames_to_host", &toHost_);
    stats().addCounter("frames_to_net", &toNet_);
    stats().addCounter("bytes_in", &bytesIn_);
    stats().addCounter("bytes_out", &bytesOut_);
}

void
BumpInWire::forward(bool to_host, Tick when, Frame &&frame)
{
    const std::uint64_t payload = frame.bytes;
    bytesIn_.inc(payload);
    const std::uint64_t out =
        transform_ ? transform_(to_host, payload) : payload;
    bytesOut_.inc(out);
    (to_host ? toHost_ : toNet_).inc();

    // The streaming pipeline: fixed latency plus occupancy at the
    // engine's byte rate (>= line rate keeps it transparent).
    const double bw = cfg_.bytes_per_cycle * cfg_.clock_hz;
    const Tick start = std::max(when, pipeFreeAt_);
    const Tick stream = units::transferTicks(std::max(payload, out), bw);
    pipeFreeAt_ = start + stream;
    const Tick ready = start + stream + units::ns(cfg_.pipeline_ns);

    frame.bytes = out;
    pipe_.push(ready, Transit{to_host, std::move(frame)});
}

} // namespace enzian::net
