/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives one simulated machine. Events are
 * arbitrary callbacks ordered by (tick, insertion sequence), so
 * same-tick events execute in schedule order, which keeps the
 * simulation deterministic.
 *
 * The kernel is built for dispatch speed — it is the floor on how
 * fast every bench and test runs:
 *
 *  - The pending set is a 4-ary min-heap of small trivially-copyable
 *    nodes (tick, sequence, slot, generation), not of the callbacks
 *    themselves, so sift operations move 32 bytes and callbacks are
 *    never copied after schedule().
 *  - Callbacks are EventFn: a move-only function with inline storage
 *    for typical capture sets (this + a few words), falling back to
 *    the heap only for oversized closures.
 *  - Event ids are generation-tagged slot handles, so cancel() is
 *    O(1) with no auxiliary set, and a stale cancel (already run,
 *    already cancelled, or never issued) is an exact no-op — it
 *    cannot corrupt accounting or leak.
 *  - empty() tracks the live-event count exactly; cancelled-but-
 *    unpopped heap nodes never make a non-empty queue look empty.
 *  - Hot periodic actors use the reusable Event class: the callback
 *    is installed once and the event re-arms itself with no
 *    per-occurrence allocation (see Event below).
 *  - Fixed-latency FIFO sources use sim::DelayLine (delay_line.hh):
 *    only the FIFO head sits in the heap, armed at a sequence number
 *    reserved at push (reserveSeq), so order matches one event per
 *    item.
 */

#ifndef ENZIAN_SIM_EVENT_QUEUE_HH
#define ENZIAN_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/units.hh"

namespace enzian {

/**
 * Handle used to cancel a scheduled one-shot event. Packs a slot
 * index and that slot's generation at schedule time; the generation
 * advances when the event runs or is cancelled, so a stale id can
 * never match a live event. 0 is never a valid id.
 */
using EventId = std::uint64_t;

/**
 * Move-only callable with small-buffer storage, the kernel's
 * callback type. Closures up to kInlineSize bytes (this-pointer plus
 * a handful of words — every hot-path event in the tree) live inline
 * in the slot arena; larger ones take one heap allocation at
 * schedule time. Implicitly constructible from any void() callable,
 * so call sites keep passing plain lambdas.
 */
class EventFn
{
  public:
    /** Inline capture budget; sized for std::function-based closures. */
    static constexpr std::size_t kInlineSize = 48;

    EventFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventFn(F &&f) // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &InlineModel<Fn>::ops;
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(f)));
            ops_ = &HeapModel<Fn>::ops;
        }
    }

    EventFn(EventFn &&other) noexcept : ops_(other.ops_)
    {
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(buf_, other.buf_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Invoke; precondition: non-empty. */
    void operator()() { ops_->call(buf_); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Destroy the target, leaving the function empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*call)(void *self);
        /** Move-construct into dst from src, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineSize &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    struct InlineModel
    {
        static void call(void *self) { (*static_cast<Fn *>(self))(); }
        static void
        relocate(void *dst, void *src) noexcept
        {
            auto *s = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        }
        static void
        destroy(void *self) noexcept
        {
            static_cast<Fn *>(self)->~Fn();
        }
        static constexpr Ops ops{&call, &relocate, &destroy};
    };

    template <typename Fn>
    struct HeapModel
    {
        static Fn *&ptr(void *self) { return *static_cast<Fn **>(self); }
        static void call(void *self) { (*ptr(self))(); }
        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) Fn *(ptr(src));
        }
        static void
        destroy(void *self) noexcept
        {
            delete ptr(self);
        }
        static constexpr Ops ops{&call, &relocate, &destroy};
    };

    alignas(std::max_align_t) unsigned char buf_[kInlineSize];
    const Ops *ops_ = nullptr;
};

class Event;

/** Deterministic discrete-event queue over picosecond Ticks. */
class EventQueue
{
  public:
    using Callback = EventFn;

    EventQueue();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when (>= now).
     *
     * @param what optional static label for diagnostics.
     * @return id usable with cancel().
     */
    EventId schedule(Tick when, Callback cb, const char *what = nullptr);

    /** Schedule @p cb at now() + @p delay. */
    EventId scheduleDelta(Tick delay, Callback cb,
                          const char *what = nullptr);

    /**
     * Cancel a previously scheduled event. Cancelling an id that has
     * already run, was already cancelled, or was never issued is an
     * exact no-op: no state is retained for stale ids.
     */
    void cancel(EventId id);

    /**
     * Take the sequence number of an event that will be armed later
     * through Event::scheduleReserved(). The event counts as scheduled
     * now, exactly as if schedule() had been called here, so it keeps
     * its place among same-tick events scheduled after this call.
     */
    std::uint64_t
    reserveSeq()
    {
        ++scheduled_;
        return seq_++;
    }

    /** Execute the next pending event. @return false if none pending. */
    bool runOne();

    /**
     * Run all events with when <= @p limit, then advance now() to
     * @p limit. @return number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /** Run until the queue drains. @return number executed. */
    std::uint64_t run();

    /** Sentinel returned by nextEventTick() when no live event exists. */
    static constexpr Tick kNoEventTick = ~Tick{0};

    /**
     * Timestamp of the earliest live event without executing it, or
     * kNoEventTick when the queue is empty. Pops stale cancelled
     * residue off the heap top as a side effect.
     */
    Tick nextEventTick();

    /** True when no runnable events remain (exact). */
    bool empty() const { return live_ == 0; }

    /** Number of live (schedulable, not cancelled) events. */
    std::size_t pendingCount() const { return live_; }

    /**
     * Heap entries including not-yet-popped cancelled residue; for
     * tests asserting steady-state memory.
     */
    std::size_t heapSize() const { return heap_.size(); }

    /** Total callback slots ever created (free-listed, reused). */
    std::size_t slotPoolSize() const { return slotCount_; }

    std::uint64_t eventsScheduled() const { return scheduled_; }
    std::uint64_t eventsExecuted() const { return executed_; }

  private:
    friend class Event;

    /** Heap entry: ordering key plus a handle into the slot arena. */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        /** Low 32 bits of the slot's generation at schedule time. */
        std::uint32_t gen;
        std::uint32_t slot;
    };

    /** Callback storage, reused through a free list. Validation
     *  fields lead so stale checks touch one cache line. */
    struct Slot
    {
        /** Bumped on run/cancel; heap nodes with old gens are stale. */
        std::uint64_t gen = 0;
        bool armed = false;
        /** Reusable-Event slot: survives dispatch, keeps its cb. */
        bool persistent = false;
        /** Dispatch in progress (persistent slots only). */
        bool executing = false;
        /** Owner destroyed during dispatch; free once cb returns. */
        bool releasePending = false;
        const char *what = nullptr;
        EventFn cb;
    };

    static constexpr std::size_t kArity = 4;
    static constexpr std::uint32_t kSlotBits = 24;
    static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
    /** Slots live in fixed chunks so references survive growth. */
    static constexpr std::uint32_t kChunkBits = 9;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

    static bool
    before(const Node &a, const Node &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /** Does heap-node @p ngen match the slot's current generation? */
    static bool
    genMatch(std::uint64_t slot_gen, std::uint32_t ngen)
    {
        return static_cast<std::uint32_t>(slot_gen) == ngen;
    }

    Slot &slot(std::uint32_t idx) { return *slotPtr_[idx]; }
    const Slot &slot(std::uint32_t idx) const { return *slotPtr_[idx]; }

    std::uint32_t acquireSlot();
    void freeSlot(std::uint32_t idx);
    /** Takes the node's fields in registers: a Node passed by value
     *  goes through the stack, and reloading it stalls store
     *  forwarding on every schedule. */
    void push(Tick when, std::uint64_t seq, std::uint32_t gen,
              std::uint32_t idx);
    void popTop();
    void siftDown(std::size_t i);
    /** Drop stale nodes off the top; top is live or heap empty after. */
    const Node *peekLive();
    void maybeCompact();

    // Reusable-Event plumbing (see Event).
    std::uint32_t acquirePersistent(EventFn cb, const char *what);
    void releasePersistent(std::uint32_t idx);
    void schedulePersistent(std::uint32_t idx, Tick when);
    /** Arm with a reserveSeq() number; counted as scheduled there. */
    void scheduleReservedPersistent(std::uint32_t idx, Tick when,
                                    std::uint64_t seq);
    void cancelPersistent(std::uint32_t idx);
    bool persistentScheduled(std::uint32_t idx) const
    {
        return slot(idx).armed;
    }

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::vector<Node> heap_;
    /** Chunked arena: slot references stay valid across growth. */
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    /** Flat per-slot pointers for single-load lookup. */
    std::vector<Slot *> slotPtr_;
    std::uint32_t slotCount_ = 0;
    std::vector<std::uint32_t> freeList_;
    std::size_t live_ = 0;
    std::size_t staleNodes_ = 0;
    std::uint64_t scheduled_ = 0;
    std::uint64_t executed_ = 0;
};

/**
 * A reusable event for hot periodic actors: the owner embeds it, the
 * callback is installed once, and each occurrence is armed with
 * schedule()/scheduleDelta() — no allocation, no callback copy, no
 * id bookkeeping. The callback may re-arm its own event (the
 * self-rescheduling idiom) and may destroy the owner (release is
 * deferred until the callback returns).
 *
 * An Event must not outlive its queue. It is movable (the handle
 * transfers) but not copyable.
 */
class Event
{
  public:
    Event() = default;

    Event(EventQueue &eq, EventQueue::Callback cb,
          const char *what = nullptr)
    {
        init(eq, std::move(cb), what);
    }

    ~Event() { release(); }

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    Event(Event &&other) noexcept
        : eq_(other.eq_), slot_(other.slot_)
    {
        other.eq_ = nullptr;
    }

    Event &
    operator=(Event &&other) noexcept
    {
        if (this != &other) {
            release();
            eq_ = other.eq_;
            slot_ = other.slot_;
            other.eq_ = nullptr;
        }
        return *this;
    }

    /** Bind to a queue and install the callback (once). */
    void
    init(EventQueue &eq, EventQueue::Callback cb,
         const char *what = nullptr)
    {
        release();
        eq_ = &eq;
        slot_ = eq.acquirePersistent(std::move(cb), what);
    }

    bool valid() const { return eq_ != nullptr; }

    /** Arm at absolute time @p when; must not already be armed. */
    void schedule(Tick when) { eq_->schedulePersistent(slot_, when); }

    /** Arm at now() + @p delay; must not already be armed. */
    void
    scheduleDelta(Tick delay)
    {
        eq_->schedulePersistent(slot_, eq_->now() + delay);
    }

    /**
     * Arm at @p when with a sequence number taken earlier from
     * EventQueue::reserveSeq(); must not already be armed.
     */
    void
    scheduleReserved(Tick when, std::uint64_t seq)
    {
        eq_->scheduleReservedPersistent(slot_, when, seq);
    }

    /** Cancel then arm at @p when (idempotent re-arm). */
    void
    reschedule(Tick when)
    {
        eq_->cancelPersistent(slot_);
        eq_->schedulePersistent(slot_, when);
    }

    /** Disarm; no-op when idle. */
    void cancel() { eq_->cancelPersistent(slot_); }

    bool
    scheduled() const
    {
        return eq_ && eq_->persistentScheduled(slot_);
    }

  private:
    void
    release()
    {
        if (eq_) {
            eq_->releasePersistent(slot_);
            eq_ = nullptr;
        }
    }

    EventQueue *eq_ = nullptr;
    std::uint32_t slot_ = 0;
};

} // namespace enzian

#endif // ENZIAN_SIM_EVENT_QUEUE_HH
