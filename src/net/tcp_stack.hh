/**
 * @file
 * Reliable byte-stream (TCP) stack model.
 *
 * One sliding-window reliable stream implementation parameterized by
 * per-segment processing costs; the two configurations used in the
 * paper's Figure 7 are:
 *
 *  - the FPGA TCP/IP stack (Sidler et al. [63]) ported to Enzian as a
 *    Coyote service: a single processing pipeline shared between all
 *    connections, with a small fixed per-segment cost and a streaming
 *    data path faster than the wire, so its throughput is independent
 *    of flow count and saturates 100 Gb/s with a 2 KiB MTU;
 *
 *  - the Linux kernel stack on a Xeon host: per-segment and per-byte
 *    CPU costs cap a single flow well below line rate, so multiple
 *    flows (4 in the paper) are needed to saturate the link.
 *
 * Both run one wire format: every data segment carries the sequence
 * number of its first byte, every ack is cumulative, and the receiver
 * reassembles in order, so the application sees a byte stream even
 * when a short segment finishes receive processing before the long
 * one ahead of it. The modeled fabric is lossless; retransmission is
 * the one opt-in (enableRecovery()), for fault runs that drop
 * segments.
 */

#ifndef ENZIAN_NET_TCP_STACK_HH
#define ENZIAN_NET_TCP_STACK_HH

#include <deque>
#include <functional>
#include <map>
#include <unordered_map>

#include "base/rng.hh"
#include "net/switch.hh"
#include "sim/delay_line.hh"

namespace enzian::net {

/** TCP segment header bytes added to every segment on the wire. */
constexpr std::uint32_t tcpHeaderBytes = 64;

/** A reliable byte-stream stack attached to one switch port. */
class TcpStack : public SimObject
{
  public:
    using Done = std::function<void(Tick)>;
    /** Receive notification: (flow, bytes in this delivery). */
    using ReceiveCb = std::function<void(std::uint32_t, std::uint64_t)>;

    /** Processing-cost configuration. */
    struct Config
    {
        /** Switch port this stack attaches to. */
        std::uint32_t port = 0;
        /** Maximum segment payload (bytes); <= link MTU - header. */
        std::uint32_t mss = 2048 - tcpHeaderBytes;
        /** Send window per flow (bytes in flight). */
        std::uint64_t window_bytes = 256 * 1024;
        /** TX fixed cost per segment (ns). */
        double tx_fixed_ns = 160.0;
        /** TX per-byte cost (ns/B); 0 for a streaming pipeline. */
        double tx_per_byte_ns = 0.0;
        /** RX fixed cost per segment (ns). */
        double rx_fixed_ns = 160.0;
        /** RX per-byte cost (ns/B). */
        double rx_per_byte_ns = 0.0;
        /** Whether TX cost serializes across flows (one pipeline). */
        bool shared_pipeline = true;
        /** One-way base latency of the stack (connect/app path, ns). */
        double app_latency_ns = 1200.0;
    };

    TcpStack(std::string name, EventQueue &eq, Switch &sw,
             const Config &cfg);

    /** Deliver received data notifications to the application. */
    void setReceiveCallback(ReceiveCb cb) { receiveCb_ = std::move(cb); }

    /**
     * Arm loss recovery for this stack's own sends: unacked segments
     * stay on a per-flow send queue, and a retransmission timer
     * (initially @p rto_us, with exponential backoff) resends the
     * oldest one go-back-N. The wire format does not change, so the
     * peer needs no matching call. Must be called before connect().
     */
    void enableRecovery(double rto_us = 150.0);

    /**
     * Inject loss/reorder faults on this stack's transmit side,
     * drawing from @p rng (nullptr disarms). @p drop_prob > 0
     * requires enableRecovery() on this stack, and on every peer that
     * sends to it: a dropped cumulative ack is repaired only by the
     * data sender's retransmission. Reordering alone needs no
     * recovery; the receiver reassembles in order.
     *
     * @param reorder_delay_us extra delay a reordered segment incurs
     */
    void setLossFaults(Rng *rng, double drop_prob,
                       double reorder_prob,
                       double reorder_delay_us = 20.0);

    /**
     * Open a flow to @p remote (handshake not modeled).
     * @return flow id valid at both stacks.
     */
    std::uint32_t connect(TcpStack &remote);

    /**
     * Stream @p bytes on @p flow; @p done runs when every byte has
     * been acknowledged. Sends on the same flow queue in order.
     */
    void send(std::uint32_t flow, std::uint64_t bytes, Done done);

    /** Total bytes received in order on @p flow. */
    std::uint64_t bytesReceived(std::uint32_t flow) const;

    const Config &config() const { return cfg_; }

    std::uint64_t segmentsSent() const { return segsTx_.value(); }
    std::uint64_t retransmits() const { return retransmits_.value(); }
    std::uint64_t rtoFirings() const { return rtos_.value(); }
    std::uint64_t duplicateAcks() const { return dupAcks_.value(); }
    std::uint64_t duplicateSegments() const { return dupSegs_.value(); }
    std::uint64_t outOfOrderSegments() const { return oooSegs_.value(); }
    std::uint64_t segmentsDropped() const
    {
        return segsDropped_.value();
    }
    std::uint64_t segmentsReordered() const
    {
        return segsReordered_.value();
    }

  private:
    struct SendJob
    {
        std::uint64_t remaining;
        std::uint64_t unacked;
        Done done;
        Tick start = 0; // submit tick, for latency stats and spans
        /** Causal flow id captured at send() time (0 = untraced). */
        std::uint64_t flowId = 0;
    };

    struct Flow
    {
        std::uint32_t remotePort = 0;
        std::deque<SendJob> jobs;
        Tick txFreeAt = 0; // per-flow pipeline availability
        /** Reusable pump event; re-armed whenever the pipeline or
         *  window forces the flow to wait. */
        Event pumpEv;
        /** Next byte to send; txNext - ackedTo bytes are in flight. */
        std::uint64_t txNext = 0;
        std::uint64_t ackedTo = 0; // cumulative ack received
        std::uint64_t rxExpected = 0; // next in-order byte expected
        /** Out-of-order arrivals held for reassembly: seq -> len. */
        std::map<std::uint64_t, std::uint64_t> ooo;

        // -- recovery state (unused unless enableRecovery() ran) ----
        /** Unacked segments (seq, len), oldest first. */
        std::deque<std::pair<std::uint64_t, std::uint64_t>> sendQ;
        std::uint32_t rtoBackoff = 0;
        Event rtoEv;
    };

    /** Message kinds on the wire. */
    enum : std::uint8_t {
        kindData = 1,
        kindAck = 2,
    };

    /** The body of every TCP frame. */
    struct TcpSeg
    {
        std::uint8_t kind = kindData;
        std::uint32_t flow = 0;
        /** First byte of a data segment, or an ack's cumulative point. */
        std::uint64_t seq = 0;
        /** Data length; 0 for an ack. */
        std::uint64_t len = 0;
    };

    /** Bytes handed to the application, after the app-path latency. */
    struct AppRx
    {
        std::uint32_t flow = 0;
        std::uint64_t bytes = 0;
    };

    /** Queue @p bytes of @p flow for the receive callback, if any. */
    void deliverToApp(std::uint32_t flow_id, std::uint64_t bytes);

    /** Put @p seg on the wire in a frame of @p bytes to @p dst. */
    void sendSeg(std::uint32_t dst, std::uint64_t bytes, TcpSeg seg);
    void pump(std::uint32_t flow_id);
    void schedulePump(std::uint32_t flow_id, Tick when);
    void onFrame(Frame &&frame);
    void onData(std::uint32_t flow_id, std::uint64_t seq,
                std::uint64_t len);
    void onAck(std::uint32_t flow_id, std::uint64_t cum);
    /** Credit @p bytes newly acked to @p f's send jobs, in order. */
    void creditAck(std::uint32_t flow_id, Flow &f, std::uint64_t bytes);
    /** Transmit (or fault-drop/reorder) one data segment. */
    void xmitData(std::uint32_t flow_id, Flow &f, std::uint64_t seq,
                  std::uint64_t len);
    void sendCumAck(std::uint32_t flow_id, Flow &f);

    // -- recovery (enableRecovery()) ------------------------------
    void armRto(std::uint32_t flow_id);
    void onRto(std::uint32_t flow_id);

    Tick txCost(std::uint64_t payload) const;
    Tick rxCost(std::uint64_t payload) const;

    Switch &sw_;
    Config cfg_;
    ReceiveCb receiveCb_;
    /**
     * Deliveries on their way to the application. The app-path
     * latency is fixed, so they arrive in the order they were queued
     * and take one heap node, for the oldest.
     */
    sim::DelayLine<AppRx> appRx_;
    std::unordered_map<std::uint32_t, Flow> flows_;
    std::uint32_t nextFlow_;
    /** Shared-pipeline availability (FPGA stack). */
    Tick pipeFreeAt_ = 0;
    /** Initial retransmission timeout; 0 = recovery off. */
    Tick rto_ = 0;
    /** Fault injection stream; nullptr = no faults. */
    Rng *faultRng_ = nullptr;
    double dropProb_ = 0.0;
    double reorderProb_ = 0.0;
    Tick reorderDelay_ = 0;
    Counter segsTx_;
    Counter segsRx_;
    Counter bytesTx_;
    Counter bytesRx_;
    Counter retransmits_;
    Counter rtos_;
    Counter dupAcks_;
    Counter dupSegs_;
    Counter oooSegs_;
    Counter segsDropped_;
    Counter segsReordered_;
    /** Submit-to-last-ack latency per send job, ns. */
    Accumulator sendLatency_;
};

/** Configuration of the Enzian FPGA TCP stack at @p fpga_clock_hz. */
TcpStack::Config fpgaTcpConfig(std::uint32_t port, double fpga_clock_hz);

/** Configuration of the Linux kernel stack on a Xeon host. */
TcpStack::Config hostTcpConfig(std::uint32_t port);

} // namespace enzian::net

#endif // ENZIAN_NET_TCP_STACK_HH
