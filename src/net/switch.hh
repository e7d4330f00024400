/**
 * @file
 * Store-and-forward Ethernet switch.
 *
 * The TCP experiment in the paper connects two Enzian FPGAs "through
 * their FPGA-side 100 Gb/s Ethernet links via a conventional network
 * switch" (section 5.2). Endpoints attach via EthernetLinks; the
 * switch routes each frame on its Frame::dst port.
 */

#ifndef ENZIAN_NET_SWITCH_HH
#define ENZIAN_NET_SWITCH_HH

#include <memory>
#include <vector>

#include "net/ethernet.hh"
#include "sim/delay_line.hh"

namespace enzian::net {

/** An N-port store-and-forward switch. */
class Switch : public SimObject
{
  public:
    /** Switch configuration. */
    struct Config
    {
        /** Per-port link configuration (the common template). */
        EthernetLink::Config port;
        /** Store-and-forward + lookup latency (ns). */
        double forward_ns = 600.0;
        /**
         * Optional per-port cable/PHY latency override (ns); entries
         * <= 0 (and ports beyond the vector) use `port.latency_ns`.
         * Longer cables model rack distance.
         */
        std::vector<double> port_latency_ns;
    };

    Switch(std::string name, EventQueue &eq, std::uint32_t ports,
           const Config &cfg);

    /**
     * The link for @p port; the endpoint is side 0, the switch side 1.
     */
    EthernetLink &port(std::uint32_t port_no)
    {
        return *ports_[port_no];
    }

    /** Register the endpoint receiver on @p port_no. */
    void setEndpoint(std::uint32_t port_no, EthernetLink::Handler h);

    /**
     * Switch into parallel domain mode: the switch fabric (and every
     * link's side 1) lives in @p net_domain, and each port's endpoint
     * side runs in @p port_domains[port]. The switch's own event queue
     * must be @p net_domain's queue. Must precede the first run.
     */
    void bindDomains(sim::DomainScheduler &sched,
                     sim::TimingDomain &net_domain,
                     const std::vector<sim::TimingDomain *> &port_domains);

    /**
     * Minimum cross-machine latency through a switch with @p cfg for
     * @p ports ports: the smallest one-way link latency (forwarding
     * delay and serialization come on top).
     */
    static Tick minCrossLatency(const Config &cfg, std::uint32_t ports);

    /** Send @p frame from @p port_no to port @p frame.dst. */
    Tick sendFrom(std::uint32_t port_no, Frame frame);

    std::uint32_t portCount() const
    {
        return static_cast<std::uint32_t>(ports_.size());
    }

  private:
    Config cfg_;
    std::vector<std::unique_ptr<EthernetLink>> ports_;
    /**
     * Frames inside the fabric. All ports deliver into the switch's
     * own queue and the forwarding delay is fixed, so frames leave in
     * arrival order and the fabric keeps one heap node, for its
     * oldest frame.
     */
    sim::DelayLine<Frame> fabric_;
};

} // namespace enzian::net

#endif // ENZIAN_NET_SWITCH_HH
