/**
 * @file
 * Ethernet link model.
 *
 * Models one full-duplex Ethernet link (40 or 100 Gb/s on Enzian) as
 * a serializer with per-frame overheads (preamble + FCS + inter-frame
 * gap + L2 header) and a propagation delay. Endpoints exchange
 * Frames; the record in a frame's body means something only to the
 * stacks built on top.
 */

#ifndef ENZIAN_NET_ETHERNET_HH
#define ENZIAN_NET_ETHERNET_HH

#include <array>
#include <functional>

#include "net/frame.hh"
#include "sim/domain_binding.hh"
#include "sim/sim_object.hh"
#include "sim/wire.hh"

namespace enzian::net {

/** Per-frame overhead: preamble 8 + FCS 4 + IFG 12 + MAC header 14. */
constexpr std::uint32_t frameOverheadBytes = 38;

/** Endpoint identifier on a link (0 or 1). */
using PortSide = std::uint32_t;

/** One full-duplex point-to-point Ethernet link. */
class EthernetLink : public SimObject
{
  public:
    /** Link configuration. */
    struct Config
    {
        /** Line rate in Gb/s (40, 100). */
        double rate_gbps = 100.0;
        /** MTU (L2 payload bytes per frame). */
        std::uint32_t mtu = 2048;
        /** Propagation + PHY latency one way (ns). */
        double latency_ns = 450.0;
    };

    /** Delivery callback: (delivery tick, the frame). */
    using Handler = std::function<void(Tick, Frame &&)>;

    EthernetLink(std::string name, EventQueue &eq, const Config &cfg);

    /**
     * Minimum cross-endpoint latency any frame on a link with @p cfg
     * can experience: the propagation + PHY delay (serialization time
     * comes on top). This is the conservative lookahead bound parallel
     * simulation relies on.
     */
    static Tick minCrossLatency(const Config &cfg);

    /**
     * Switch the link into parallel domain mode: each side reads time
     * from its own domain's clock and deliveries toward the other side
     * cross through the scheduler's channels. When both sides live in
     * the same domain, deliveries stay local. Must be called before
     * the scheduler starts.
     */
    void bindDomains(sim::DomainScheduler &sched,
                     sim::TimingDomain &side0_domain,
                     sim::TimingDomain &side1_domain);

    /** True once bindDomains() has been called. */
    bool domainMode() const { return dirBind_.bound(); }

    /** Register the receiver on @p side (0/1). */
    void setReceiver(PortSide side, Handler h);

    /**
     * Send @p frame from @p from to the other side. Its bytes are
     * segmented into MTU-sized frames for timing; the frame itself,
     * body included, is handed to the receiver.
     * @return the delivery tick of the last byte.
     */
    Tick send(PortSide from, Frame frame);

    /** Effective payload bandwidth at the configured MTU (bytes/s). */
    double effectiveBandwidth() const;

    /** Raw line rate in bytes/s. */
    double lineRate() const { return lineBw_; }

    const Config &config() const { return cfg_; }

    std::uint64_t bytesSent(PortSide side) const
    {
        return bytes_[side].value();
    }

  private:
    Config cfg_;
    double lineBw_;
    /** Serializer occupancy per sending side; in domain mode each
     *  entry is written only by its own side's domain thread. */
    Tick busFreeAt_[2] = {0, 0};
    Handler handlers_[2];
    /** bytes_[side] likewise has a single writer in domain mode. */
    Counter bytes_[2];
    /** Frames in flight per sending side, delivered in send order:
     *  each frame starts after the previous one left the serializer,
     *  and the latency is fixed. */
    std::array<sim::Wire<Frame>, 2> wire_;

    // --- parallel domain mode state (unbound in legacy mode) -------
    /** Per-side source clock + outbound mailbox, bound with this
     *  link's own latency floor as the pair lookahead (per-port cable
     *  latencies become per-pair lookaheads). */
    sim::DirDomainBinding dirBind_;
};

} // namespace enzian::net

#endif // ENZIAN_NET_ETHERNET_HH
