/**
 * @file
 * One heap node per fixed-latency FIFO source.
 *
 * A wire, a switch fabric or a pipeline with a fixed latency hands
 * its items over in the order they went in. Scheduling one event per
 * item would keep every item in flight in the event heap; a DelayLine
 * keeps the items in a ring FIFO and only the head in the heap, on one
 * reusable Event that re-arms itself for the next item after each
 * delivery. The heap then holds O(sources), not O(items in flight).
 *
 * Each push() reserves its event sequence number from the queue at
 * once, and the head is armed at that reserved (tick, seq), so
 * same-tick order — and the queue's scheduled/executed counts — are
 * exactly what one event per item would give.
 */

#ifndef ENZIAN_SIM_DELAY_LINE_HH
#define ENZIAN_SIM_DELAY_LINE_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "base/logging.hh"
#include "base/ring_fifo.hh"
#include "sim/event_queue.hh"

namespace enzian::sim {

/**
 * FIFO of @p T items, each delivered at its own tick. Ticks must not
 * decrease in push order. Not movable: the event captures `this`.
 */
template <typename T>
class DelayLine
{
  public:
    /** Delivery callback: (delivery tick, the item). */
    using Deliver = std::function<void(Tick, T &&)>;

    DelayLine() = default;
    DelayLine(const DelayLine &) = delete;
    DelayLine &operator=(const DelayLine &) = delete;

    /**
     * Bind to @p eq with @p deliver, or re-bind an empty line to
     * another queue.
     */
    void
    init(EventQueue &eq, Deliver deliver, const char *what = nullptr)
    {
        ENZIAN_ASSERT(fifo_.empty(), "delay line '%s' re-bound while "
                      "holding items", what ? what : "?");
        eq_ = &eq;
        deliver_ = std::move(deliver);
        tail_ = 0;
        ev_.init(eq, [this]() { fire(); }, what);
    }

    /** Deliver @p item at @p when (>= the last pushed tick). */
    void
    push(Tick when, T &&item)
    {
        ENZIAN_ASSERT(when >= tail_,
                      "delay line push at %llu before its tail %llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(tail_));
        const std::uint64_t seq = eq_->reserveSeq();
        const bool idle = fifo_.empty();
        fifo_.push(Entry{when, seq, std::move(item)});
        tail_ = when;
        if (idle)
            ev_.scheduleReserved(when, seq);
    }

  private:
    struct Entry
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        T item{};
    };

    void
    fire()
    {
        Entry e = fifo_.pop();
        if (!fifo_.empty())
            ev_.scheduleReserved(fifo_.front().when, fifo_.front().seq);
        // Last use of `this`: the callback may push into this line.
        deliver_(e.when, std::move(e.item));
    }

    EventQueue *eq_ = nullptr;
    Deliver deliver_;
    RingFifo<Entry> fifo_;
    Tick tail_ = 0;
    Event ev_;
};

} // namespace enzian::sim

#endif // ENZIAN_SIM_DELAY_LINE_HH
