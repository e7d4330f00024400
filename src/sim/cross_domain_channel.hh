/**
 * @file
 * Timestamped mailbox carrying events between timing domains.
 *
 * A CrossDomainChannel is the only legal way for activity in one
 * timing domain to cause activity in another while a parallel
 * simulation is running (see DomainScheduler). It is single-producer
 * (events executing in the source domain) / single-consumer (the
 * barrier coordinator), so the hot path is a plain vector append with
 * no atomics: the epoch barrier's acquire/release handshake provides
 * the happens-before edge between producer and consumer.
 *
 * The queue itself is an SoA batch: one stream of trivially-copyable
 * Entry{tick, lane, slot} records in push order, with payloads either
 * in the generic EventFn side array or in a typed ChannelLane slot
 * arena (see channel_lane.hh). The barrier drain walks the entry
 * stream linearly and schedules each record into the destination
 * queue; lane entries produce a two-word inline closure, so the hot
 * message types cross domains with zero per-message allocation.
 *
 * Conservative-lookahead contract: every push must carry a delivery
 * timestamp at least `lookahead()` ticks after the source domain's
 * current time. The lookahead is per-channel — derived from the
 * slowest-possible reaction time of the specific link the channel
 * models (ECI engine+wire floor, Ethernet cable latency) — and never
 * below the scheduler's base lookahead, which is the fixed epoch
 * step, so a message pushed during an epoch always delivers after
 * that epoch's end. When the source domain has published a
 * no-sends-before promise (see TimingDomain::promiseNoSendsBefore),
 * pushes before the promised tick are a contract violation and fail
 * fast: the adaptive scheduler may already have stretched an epoch
 * past the point where such a message could deliver safely.
 */

#ifndef ENZIAN_SIM_CROSS_DOMAIN_CHANNEL_HH
#define ENZIAN_SIM_CROSS_DOMAIN_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "base/units.hh"
#include "sim/event_queue.hh"

namespace enzian::sim {

class ChannelLaneBase;
class DomainScheduler;

/** SPSC batched mailbox for cross-domain delivery (see file comment). */
class CrossDomainChannel
{
  public:
    CrossDomainChannel(const CrossDomainChannel &) = delete;
    CrossDomainChannel &operator=(const CrossDomainChannel &) = delete;

    /**
     * Enqueue @p fn for execution in the destination domain at
     * absolute time @p when. Must only be called from the source
     * domain (or from outside the simulation while it is stopped),
     * and @p when must be >= source now() + lookahead().
     */
    void push(Tick when, EventFn fn);

    /**
     * Register a typed payload lane; returns its lane id. Called by
     * ChannelLane::attach before the scheduler starts.
     */
    std::uint32_t addLane(ChannelLaneBase &lane);

    /**
     * Enqueue slot @p idx of lane @p lane for delivery at @p when.
     * Same contract as push(); called by ChannelLane::push.
     */
    void pushLane(Tick when, std::uint32_t lane, std::uint32_t idx);

    /** Destination queue (lanes schedule delivery closures into it). */
    EventQueue &dstQueue() { return dstq_; }

    /** Messages currently queued (consumer/stopped-world only). */
    std::size_t size() const { return entries_.size(); }

    /** Total messages ever forwarded through the barrier drain. */
    std::uint64_t messagesForwarded() const { return forwarded_; }

    std::uint32_t srcDomainId() const { return srcId_; }
    std::uint32_t dstDomainId() const { return dstId_; }

    /** Minimum source-now-to-delivery distance this channel enforces. */
    Tick lookahead() const { return lookahead_; }

  private:
    friend class DomainScheduler;

    CrossDomainChannel(EventQueue &srcq, EventQueue &dstq,
                       std::uint32_t src_id, std::uint32_t dst_id,
                       Tick lookahead, const Tick *src_promise)
        : srcq_(srcq), dstq_(dstq), srcId_(src_id), dstId_(dst_id),
          lookahead_(lookahead), srcPromise_(src_promise)
    {
    }

    /** Lookahead + promise contract shared by push and pushLane. */
    void checkPush(Tick when) const;

    /**
     * Recycle lane slots retired since the last barrier, then
     * schedule every queued entry into the destination queue, in push
     * (= source schedule) order. Barrier coordinator only.
     * @return number of entries forwarded.
     */
    std::uint64_t drain();

    /** One queued message: payload lives in fns_ or in a lane arena. */
    struct Entry
    {
        Tick when;
        std::uint32_t lane; ///< kGenericLane or an addLane() id.
        std::uint32_t idx;  ///< index into fns_ or the lane arena.
    };

    static constexpr std::uint32_t kGenericLane = ~std::uint32_t{0};

    EventQueue &srcq_;
    EventQueue &dstq_;
    std::uint32_t srcId_;
    std::uint32_t dstId_;
    Tick lookahead_;
    /** Source domain's no-sends-before promise (owned by the
     *  scheduler's TimingDomain; read under the push contract). */
    const Tick *srcPromise_;
    std::vector<Entry> entries_;
    std::vector<EventFn> fns_;
    std::vector<ChannelLaneBase *> lanes_;
    std::uint64_t forwarded_ = 0;
};

} // namespace enzian::sim

#endif // ENZIAN_SIM_CROSS_DOMAIN_CHANNEL_HH
