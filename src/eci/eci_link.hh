/**
 * @file
 * ECI physical link model.
 *
 * The Enzian interconnect is 24 lanes of 10 Gb/s organized as two
 * links of 12 lanes each (paper section 5.1). Each EciLink models one
 * such link: full duplex, with per-direction serialization occupancy,
 * a fixed propagation + SerDes latency, and a per-node protocol-engine
 * processing latency (the FPGA side is slower because the fabric is
 * clocked at 200-300 MHz). The lane count can be dialed down, as the
 * BDK allows (section 4.4; early ECI bring-up used 4 lanes).
 */

#ifndef ENZIAN_ECI_ECI_LINK_HH
#define ENZIAN_ECI_ECI_LINK_HH

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "eci/eci_msg.hh"
#include "sim/domain_binding.hh"
#include "sim/sim_object.hh"
#include "sim/wire.hh"

namespace enzian::eci {

/** One 12-lane (configurable) full-duplex ECI link. */
class EciLink : public SimObject
{
  public:
    /** Link configuration. */
    struct Config
    {
        /** Active lanes (Enzian: 12 per link; BDK can reduce). */
        std::uint32_t lanes = 12;
        /** Per-lane raw rate in Gb/s. */
        double lane_gbps = 10.0;
        /** Fraction of raw bandwidth left after 64b/66b + framing. */
        double efficiency = 0.92;
        /** Wire propagation + SerDes latency, one way (ns). */
        double wire_latency_ns = 80.0;
        /** CPU-side protocol engine processing latency (ns). */
        double cpu_proc_ns = 60.0;
        /** FPGA-side protocol engine processing latency (ns). */
        double fpga_proc_ns = 150.0;
        /** Lane retrain duration after a lane failure or flap (ns). */
        double retrain_ns = 25000.0;
    };

    /** Delivery callback invoked at the receiving node. */
    using Handler = std::function<void(const EciMsg &)>;
    /** Trace tap observing every message with its send tick. */
    using Tap = std::function<void(Tick, const EciMsg &)>;

    /** Verdict of a fault filter for one message. */
    enum class FaultAction : std::uint8_t {
        Deliver, ///< no fault: normal delivery
        Drop,    ///< message vanishes on the wire
        Corrupt, ///< CRC failure at the receiver: detected, discarded
    };

    /**
     * Fault filter consulted for every send. Dropped and corrupted
     * messages still occupy the serializer (the bits went out) but are
     * never delivered and never reach the trace tap — the checker only
     * sees what a real capture would.
     */
    using FaultFilter = std::function<FaultAction(Tick, const EciMsg &)>;

    EciLink(std::string name, EventQueue &eq, const Config &cfg);

    /**
     * Minimum cross-node latency any message on a link with @p cfg
     * can experience: sender processing + wire flight + receiver
     * processing (the serializer stream time comes on top). This is
     * the conservative lookahead bound parallel simulation relies on.
     */
    static Tick minCrossLatency(const Config &cfg);

    /**
     * Switch the link into parallel domain mode: each direction reads
     * time from its source domain's clock, deliveries cross through
     * the scheduler's channels, and per-direction staged statistics
     * and trace taps are folded/flushed deterministically at every
     * epoch barrier. Must be called before the scheduler starts.
     */
    void bindDomains(sim::DomainScheduler &sched,
                     sim::TimingDomain &cpu_domain,
                     sim::TimingDomain &fpga_domain);

    /** True once bindDomains() has been called. */
    bool domainMode() const { return stage_.armed(); }

    /** The scheduler bindDomains() joined, or null on one queue. */
    sim::DomainScheduler *scheduler() const
    {
        return dirBind_.scheduler();
    }

    /**
     * The queue the @p src node's direction sends on: its domain's in
     * domain mode, else the link's own.
     */
    EventQueue &sendQueue(mem::NodeId src);

    /** Register the message handler for node @p node. */
    void setReceiver(mem::NodeId node, Handler h);

    /**
     * Append a trace tap, keeping any already installed. Taps fire in
     * attach order for every observed message, so e.g. an
     * InvariantMonitor and a pcap trace can watch the same fabric.
     */
    void addTap(Tap tap)
    {
        if (tap)
            taps_.push_back(std::move(tap));
    }

    /** Number of attached taps. */
    std::size_t tapCount() const { return taps_.size(); }

    /** Install a fault filter (pass nullptr to remove). */
    void setFaultFilter(FaultFilter f) { fault_ = std::move(f); }

    /**
     * Send @p msg to the other node; schedules delivery at its
     * handler. @return the delivery tick.
     */
    Tick send(const EciMsg &msg);

    /** Effective CPU-to-FPGA bandwidth in bytes/s. */
    double effectiveBandwidth() const { return tx_[0].effBw; }

    /** Change the active lane count (BDK dial-up/down), before a run. */
    void setLanes(std::uint32_t lanes);

    /*
     * Physical-layer faults. Each is one event per direction at tick
     * @p at on that direction's sendQueue(), which alone writes the
     * direction's lanes, serializer and retrain state; so they are
     * safe across domains. Call them before the simulation reaches
     * @p at, and in domain mode before the scheduler starts.
     */

    /**
     * Fail @p n lanes at @p at: the link retrains, then runs derated
     * on the surviving lanes (never below one). Bandwidth degrades
     * proportionally, preserving the Fig 6 curve shape.
     */
    void failLanes(Tick at, std::uint32_t n);

    /** Bring the link back to @p lanes lanes at @p at (retrains first). */
    void restoreLanes(Tick at, std::uint32_t lanes);

    /**
     * Link flap at @p at: the link is down for @p down_time, then
     * retrains before carrying traffic again. Every message sent
     * before @p at and due at or after it is lost (credits
     * reconciled); its receiver drops it on arrival.
     */
    void flap(Tick at, Tick down_time);

    /** True while a retrain blocks either serializer. */
    bool retraining() const
    {
        return std::max(tx_[0].retrainEndsAt, tx_[1].retrainEndsAt) >
               now();
    }

    std::uint32_t lanes() const { return tx_[0].lanes; }

    std::uint64_t messagesSent() const { return agg_.msgs.value(); }
    std::uint64_t bytesSent() const { return agg_.bytes.value(); }
    std::uint64_t messagesDropped() const
    {
        return agg_.dropped.value();
    }
    std::uint64_t messagesCorrupted() const
    {
        return agg_.corrupted.value();
    }
    std::uint64_t laneFailures() const { return laneFails_.value(); }
    std::uint64_t linkFlaps() const { return flaps_.value(); }
    std::uint64_t retrains() const { return retrains_.value(); }
    /** Messages lost in flight during flaps (credit reconciliation). */
    std::uint64_t creditsReconciled() const { return agg_.lost.value(); }
    /** Tick the given direction's serializer frees up. */
    Tick busFreeAt(mem::NodeId src_node) const;

    /** End-to-end message latency (send to delivery), in ns. */
    const Accumulator &latency() const { return agg_.latency; }
    /** Latency accumulator for one VC, in ns. */
    const Accumulator &vcLatency(Vc vc) const
    {
        return agg_.vcLatency[static_cast<std::size_t>(vc)];
    }

  private:
    /** Ticks computed for one transmission. */
    struct TxTiming
    {
        Tick serReady;
        Tick start;
        Tick stream;
        Tick delivery;
    };

    /**
     * Per-direction transmission statistics. In single-queue mode
     * every send samples agg_ directly; in domain mode each direction
     * samples its own stage (touched only by the source domain's
     * thread) and the stages fold into agg_ at every epoch barrier,
     * direction 0 first — a fixed order, so the folded values are
     * bit-identical for any thread count. A message lost in a flap is
     * counted by its receiver, in the stage of the direction that
     * receiver sends on.
     */
    struct TxStats
    {
        Counter msgs;
        Counter bytes;
        Counter dropped;
        Counter corrupted;
        Counter lost;
        Accumulator latency;
        Accumulator serWait;
        Histogram hist{0.0, 4000.0, 80};
        std::array<Accumulator, vcCount> vcLatency;

        /** Move this stage's samples into @p agg and reset it. */
        void foldInto(TxStats &agg);
    };

    /** A message on the wire, with the tick it was sent. */
    struct Flight
    {
        Tick sent = 0;
        EciMsg msg;
    };

    void setDirLanes(std::size_t dir, std::uint32_t lanes);
    Tick procLatency(mem::NodeId node) const;
    Tick sendFaulted(Tick tnow, const EciMsg &msg, FaultAction act);
    void deliver(Tick when, const Flight &f);
    void onEachDir(Tick at, const char *what,
                   std::function<void(std::size_t)> fn);
    void beginRetrain(std::size_t dir, Tick duration);
    TxTiming txTiming(Tick tnow, const EciMsg &msg);
    void recordTx(std::size_t dir, Tick tnow, const EciMsg &msg,
                  const TxTiming &t);
    TxStats &txStats(std::size_t dir)
    {
        return stage_.armed() ? stage_[dir] : agg_;
    }
    void foldDomainState();
    void flushTaps();

    /**
     * One direction's transmit side, written only by its sending
     * domain; cache-line isolated, so two domain threads sending
     * concurrently don't false-share.
     */
    struct alignas(64) DirTx
    {
        /** Tick the serializer frees up. */
        Tick busFreeAt = 0;
        /** Tick the current retrain (if any) completes. */
        Tick retrainEndsAt = 0;
        std::uint32_t lanes = 0;
        /** Effective bandwidth on those lanes, bytes/s. */
        double effBw = 0;
    };

    Config cfg_;
    /** Transmit state per direction, indexed by source node. */
    std::array<DirTx, 2> tx_;
    std::array<Handler, 2> handlers_;
    /** Messages in flight per direction (by msg.src): the serializer
     *  is FIFO and the latency fixed, so they leave in send order. */
    std::array<sim::Wire<Flight>, 2> wire_;
    std::vector<Tap> taps_; ///< fire in attach order
    FaultFilter fault_;
    /** Planned flap ticks, ascending; fixed while domains run. */
    std::vector<Tick> flapTicks_;
    /** Link-level fault events, counted by direction 0's event. */
    Counter laneFails_;
    Counter flaps_;
    Counter retrains_;
    /** Aggregate tx statistics (the registered/reported view). */
    TxStats agg_;

    // --- parallel domain mode state (null/empty in legacy mode) ----
    /** Per-direction staged stats; arming doubles as the flag. */
    sim::DirStaged<TxStats> stage_;
    /** Per-direction source clock + outbound mailbox (by msg.src),
     *  bound with this link's own latency floor as pair lookahead. */
    sim::DirDomainBinding dirBind_;
    /** Per-direction buffered tap events, flushed at barriers. */
    std::array<std::vector<std::pair<Tick, EciMsg>>, 2> tapStage_;
};

/** Policy for spreading traffic over the two links. */
enum class BalancePolicy : std::uint8_t {
    SingleLink,  ///< all traffic on link 0 (the Fig 6 restriction)
    RoundRobin,  ///< alternate links per message and direction
    AddressHash, ///< hash the line address (keeps per-line ordering)
    LeastLoaded, ///< pick the link whose serializer frees first
};

/** Readable policy name. */
const char *toString(BalancePolicy p);

/**
 * The pair of ECI links plus a balancing policy; agents send through
 * this fabric rather than a specific link.
 */
class EciFabric : public SimObject
{
  public:
    EciFabric(std::string name, EventQueue &eq,
              const EciLink::Config &link_cfg, std::uint32_t links = 2,
              BalancePolicy policy = BalancePolicy::AddressHash);

    /** Register receiver on all links. */
    void setReceiver(mem::NodeId node, EciLink::Handler h);

    /** Append a trace tap on all links (chains with existing taps). */
    void addTap(EciLink::Tap tap);

    /**
     * Switch every link into parallel domain mode (see
     * EciLink::bindDomains).
     */
    void bindDomains(sim::DomainScheduler &sched,
                     sim::TimingDomain &cpu_domain,
                     sim::TimingDomain &fpga_domain);

    /** Send through the link selected by the policy. */
    Tick send(const EciMsg &msg);

    BalancePolicy policy() const { return policy_; }

    std::uint32_t linkCount() const
    {
        return static_cast<std::uint32_t>(links_.size());
    }
    EciLink &link(std::uint32_t i) { return *links_[i]; }

    /** Aggregate effective one-direction bandwidth (bytes/s). */
    double effectiveBandwidth() const;

  private:
    std::uint32_t pickLink(const EciMsg &msg);

    std::vector<std::unique_ptr<EciLink>> links_;
    BalancePolicy policy_;
    /** Round-robin counters, one per sending direction. */
    std::array<std::uint32_t, 2> rrDir_{0, 0};
};

} // namespace enzian::eci

#endif // ENZIAN_ECI_ECI_LINK_HH
