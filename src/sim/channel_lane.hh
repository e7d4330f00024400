/**
 * @file
 * Typed slot arenas for hot cross-domain message types.
 *
 * A ChannelLane<T> rides on one CrossDomainChannel and carries one
 * dominant message type (EciMsg, Ethernet frames) without any
 * per-message allocation: payloads live in chunked slot arenas owned
 * by the lane, the channel's entry stream records only (tick, lane,
 * slot), and the closure scheduled into the destination queue at the
 * barrier is a two-word [lane, slot] capture that always fits
 * EventFn's inline buffer. Draining a lane-heavy channel therefore
 * walks a cache-linear SoA stream instead of chasing one heap
 * allocation per message.
 *
 * Slot lifecycle (all hand-offs ride the epoch barrier handshake, so
 * no atomics are needed anywhere):
 *
 *   1. source thread, during an epoch: push() pops a slot from the
 *      free list, moves the payload in, and appends an entry to the
 *      channel.
 *   2. coordinator, at the barrier: the channel drain calls forward(),
 *      which schedules the inline delivery closure into the
 *      destination queue.
 *   3. destination thread, in a later epoch: the closure moves the
 *      payload out of the slot, retires the slot and hands the
 *      payload to the handler with its delivery tick.
 *   4. coordinator, at the next barrier: recycle() moves retired
 *      slots back to the free list.
 *
 * The chunk-pointer table has fixed capacity so growing the arena
 * (source thread) never relocates storage the destination thread may
 * be reading through.
 */

#ifndef ENZIAN_SIM_CHANNEL_LANE_HH
#define ENZIAN_SIM_CHANNEL_LANE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "sim/cross_domain_channel.hh"

namespace enzian::sim {

/** Type-erased lane interface the channel drains through. */
class ChannelLaneBase
{
  public:
    virtual ~ChannelLaneBase() = default;

  protected:
    ChannelLaneBase() = default;

  private:
    friend class CrossDomainChannel;

    /** Schedule slot @p idx into the destination at @p when. */
    virtual void forward(Tick when, std::uint32_t idx) = 0;
    /** Return slots retired by the destination to the free list. */
    virtual void recycle() = 0;
};

/**
 * Slot-arena lane for payload type @p T (see file comment). T must be
 * default-constructible and move-assignable; the handler runs in the
 * destination domain.
 */
template <typename T>
class ChannelLane final : public ChannelLaneBase
{
  public:
    /** Destination-side callback: (delivery tick, the payload). */
    using Handler = std::function<void(Tick, T &&)>;

    ChannelLane() = default;
    ChannelLane(const ChannelLane &) = delete;
    ChannelLane &operator=(const ChannelLane &) = delete;

    /**
     * Register on @p chan and install the destination-side @p handler.
     * Must precede the scheduler start (lane registration is part of
     * the channel's drain plan).
     */
    void
    attach(CrossDomainChannel &chan, Handler handler)
    {
        ENZIAN_ASSERT(chan_ == nullptr, "lane attached twice");
        chan_ = &chan;
        handler_ = std::move(handler);
        id_ = chan.addLane(*this);
    }

    /**
     * Move @p value into a slot and enqueue it for delivery at
     * absolute time @p when. Source-domain threads only; same
     * lookahead/promise contract as CrossDomainChannel::push.
     */
    void
    push(Tick when, T &&value)
    {
        const std::uint32_t idx = acquire();
        slot(idx) = std::move(value);
        chan_->pushLane(when, id_, idx);
    }

    /** Chunks allocated so far (tests: proves slots are recycled). */
    std::uint32_t chunksAllocated() const { return chunkCount_; }

  private:
    static constexpr std::uint32_t kChunkSlots = 256;
    static constexpr std::uint32_t kMaxChunks = 1024;

    void
    forward(Tick when, std::uint32_t idx) override
    {
        // Two-word capture: always inline in EventFn, no allocation.
        chan_->dstQueue().schedule(when,
                                   [this, idx] { deliver(idx); });
    }

    void
    deliver(std::uint32_t idx)
    {
        // Moved out so the payload dies with this delivery, not when
        // the slot is reused.
        T value = std::move(slot(idx));
        retired_.push_back(idx);
        handler_(chan_->dstQueue().now(), std::move(value));
    }

    void
    recycle() override
    {
        free_.insert(free_.end(), retired_.begin(), retired_.end());
        retired_.clear();
    }

    std::uint32_t
    acquire()
    {
        if (free_.empty())
            grow();
        const std::uint32_t idx = free_.back();
        free_.pop_back();
        return idx;
    }

    void
    grow()
    {
        ENZIAN_ASSERT(chunkCount_ < kMaxChunks,
                      "channel lane arena exhausted (%u chunks); "
                      "more than %u messages in flight",
                      static_cast<unsigned>(kMaxChunks),
                      static_cast<unsigned>(kMaxChunks * kChunkSlots));
        chunks_[chunkCount_] = std::make_unique<T[]>(kChunkSlots);
        const std::uint32_t base = chunkCount_ * kChunkSlots;
        // Reverse so acquire() hands slots out in ascending order.
        for (std::uint32_t i = kChunkSlots; i > 0; --i)
            free_.push_back(base + i - 1);
        ++chunkCount_;
    }

    T &
    slot(std::uint32_t idx)
    {
        return chunks_[idx / kChunkSlots][idx % kChunkSlots];
    }

    CrossDomainChannel *chan_ = nullptr;
    std::uint32_t id_ = 0;
    Handler handler_;
    /** Fixed-capacity chunk table: growth never relocates payloads. */
    std::array<std::unique_ptr<T[]>, kMaxChunks> chunks_;
    std::uint32_t chunkCount_ = 0;
    /** Popped by the source thread during epochs, refilled by the
     *  coordinator at barriers. */
    std::vector<std::uint32_t> free_;
    /** Pushed by the destination thread during epochs, drained by the
     *  coordinator at barriers. */
    std::vector<std::uint32_t> retired_;
};

} // namespace enzian::sim

#endif // ENZIAN_SIM_CHANNEL_LANE_HH
