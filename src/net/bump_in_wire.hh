/**
 * @file
 * Catapult-style bump-in-the-wire networking (paper sections 2.1 and
 * 5.2).
 *
 * In Microsoft Catapult "the FPGA is connected to the CPU through
 * both a PCIe link and an Ethernet 'bump in the wire' connection";
 * the paper notes "Enzian can also subsume the use-case for Microsoft
 * Catapult (with equivalent performance) by connecting an additional
 * networking cable between one of the 100 Gb/s interfaces on the
 * XCVU9P ... and one of the ThunderX-1's 40 Gb/s NICs" (section 5.2).
 *
 * BumpInWire sits between the top-of-rack switch port and the host
 * NIC port: every frame traverses the FPGA in both directions, where
 * an inline function (compression, encryption, match-action rules -
 * supplied as a callback transforming the payload size) runs at line
 * rate with a fixed pipeline delay. The host never sees the cost.
 */

#ifndef ENZIAN_NET_BUMP_IN_WIRE_HH
#define ENZIAN_NET_BUMP_IN_WIRE_HH

#include <functional>

#include "net/ethernet.hh"
#include "sim/delay_line.hh"

namespace enzian::net {

/** An inline FPGA function on the network path. */
class BumpInWire : public SimObject
{
  public:
    /**
     * Inline transform: given (direction-to-host, payload bytes),
     * return the transformed payload size (e.g. compression shrinks
     * frames toward the host, expands them outbound).
     */
    using Transform =
        std::function<std::uint64_t(bool to_host, std::uint64_t)>;

    /** Configuration. */
    struct Config
    {
        /** Fabric pipeline delay per frame (ns). */
        double pipeline_ns = 800.0;
        /** Streaming capacity (bytes/cycle at clock; default >=line). */
        double bytes_per_cycle = 64.0;
        double clock_hz = 250e6;
    };

    /**
     * @param net_link the switch-facing 100 GbE link (side 1 = here)
     * @param host_link the NIC-facing 40 GbE link (side 0 = here)
     */
    BumpInWire(std::string name, EventQueue &eq,
               EthernetLink &net_link, EthernetLink &host_link,
               const Config &cfg);

    /** Install the inline function (identity when unset). */
    void setTransform(Transform t) { transform_ = std::move(t); }

    std::uint64_t framesToHost() const { return toHost_.value(); }
    std::uint64_t framesToNet() const { return toNet_.value(); }
    std::uint64_t bytesIn() const { return bytesIn_.value(); }
    std::uint64_t bytesOut() const { return bytesOut_.value(); }

  private:
    /** A frame inside the pipeline, bound for one of the links. */
    struct Transit
    {
        bool toHost = false;
        Frame frame;
    };

    void forward(bool to_host, Tick when, Frame &&frame);

    EthernetLink &netLink_;
    EthernetLink &hostLink_;
    Config cfg_;
    Transform transform_;
    Tick pipeFreeAt_ = 0;
    /**
     * Frames in the pipeline. Both directions share it and each frame
     * starts after the previous one streamed, so frames leave in
     * arrival order and the pipeline keeps one heap node, for its
     * oldest frame.
     */
    sim::DelayLine<Transit> pipe_;
    Counter toHost_;
    Counter toNet_;
    Counter bytesIn_;
    Counter bytesOut_;
};

} // namespace enzian::net

#endif // ENZIAN_NET_BUMP_IN_WIRE_HH
