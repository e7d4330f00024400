/**
 * @file
 * Event queue implementation: 4-ary heap over slot handles.
 */

#include "sim/event_queue.hh"

#include <algorithm>

#include "base/logging.hh"

namespace enzian {

namespace {

constexpr std::uint32_t kSlotBitsLocal = 24;
constexpr std::uint64_t kGenMask =
    (std::uint64_t{1} << (64 - kSlotBitsLocal)) - 1;

constexpr EventId
makeId(std::uint32_t idx, std::uint64_t gen)
{
    return ((gen & kGenMask) << kSlotBitsLocal) |
           (static_cast<std::uint64_t>(idx) + 1);
}

} // namespace

EventQueue::EventQueue() = default;

std::uint32_t
EventQueue::acquireSlot()
{
    if (!freeList_.empty()) {
        const std::uint32_t idx = freeList_.back();
        freeList_.pop_back();
        return idx;
    }
    ENZIAN_ASSERT(slotCount_ < kSlotMask,
                  "event queue slot arena exhausted");
    if ((slotCount_ >> kChunkBits) == chunks_.size())
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    slotPtr_.push_back(
        &chunks_[slotCount_ >> kChunkBits]
                [slotCount_ & (kChunkSize - 1)]);
    return slotCount_++;
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Slot &s = slot(idx);
    s.cb.reset();
    s.what = nullptr;
    s.persistent = false;
    freeList_.push_back(idx);
}

void
EventQueue::push(Tick when, std::uint64_t seq, std::uint32_t gen,
                 std::uint32_t idx)
{
    const Node n{when, seq, gen, idx};
    heap_.push_back(n);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t p = (i - 1) / kArity;
        if (!before(n, heap_[p]))
            break;
        heap_[i] = heap_[p];
        i = p;
    }
    heap_[i] = n;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    const Node v = heap_[i];
    for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n)
            break;
        // Pull the likely next level in while comparing this one.
        if (first * kArity + 1 < n)
            __builtin_prefetch(&heap_[first * kArity + 1]);
        std::size_t best = first;
        const std::size_t last = std::min(first + kArity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], v))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = v;
}

void
EventQueue::popTop()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (heap_.size() > 1)
        siftDown(0);
}

const EventQueue::Node *
EventQueue::peekLive()
{
    while (!heap_.empty()) {
        const Node &top = heap_.front();
        const Slot &s = slot(top.slot);
        if (s.armed && genMatch(s.gen, top.gen))
            return &heap_.front();
        popTop();
        --staleNodes_;
    }
    return nullptr;
}

void
EventQueue::maybeCompact()
{
    // Heavy cancellation leaves stale nodes in the heap; once they
    // outnumber live ones (and are worth the pass), filter + heapify
    // so the heap never grows unboundedly under cancel-mostly loads.
    if (staleNodes_ < 64 || staleNodes_ * 2 < heap_.size())
        return;
    std::size_t w = 0;
    for (const Node &n : heap_) {
        const Slot &s = slot(n.slot);
        if (s.armed && genMatch(s.gen, n.gen))
            heap_[w++] = n;
    }
    heap_.resize(w);
    staleNodes_ = 0;
    if (w > 1) {
        for (std::size_t i = (w - 2) / kArity + 1; i-- > 0;)
            siftDown(i);
    }
}

EventId
EventQueue::schedule(Tick when, Callback cb, const char *what)
{
    ENZIAN_ASSERT(when >= now_,
                  "scheduling event '%s' in the past (%llu < %llu)",
                  what ? what : "?",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    const std::uint32_t idx = acquireSlot();
    Slot &s = slot(idx);
    s.cb = std::move(cb);
    s.what = what;
    s.armed = true;
    push(when, seq_++, static_cast<std::uint32_t>(s.gen), idx);
    ++scheduled_;
    ++live_;
    return makeId(idx, s.gen);
}

EventId
EventQueue::scheduleDelta(Tick delay, Callback cb, const char *what)
{
    return schedule(now_ + delay, std::move(cb), what);
}

void
EventQueue::cancel(EventId id)
{
    const std::uint64_t slot_plus1 = id & kSlotMask;
    if (slot_plus1 == 0 || slot_plus1 > slotCount_)
        return;
    const auto idx = static_cast<std::uint32_t>(slot_plus1 - 1);
    Slot &s = slot(idx);
    // Stale ids (already run, already cancelled, reused slot) fail
    // the generation check and are exact no-ops.
    if (!s.armed || s.persistent ||
        (s.gen & kGenMask) != (id >> kSlotBits)) {
        return;
    }
    s.armed = false;
    ++s.gen;
    --live_;
    ++staleNodes_;
    freeSlot(idx);
    maybeCompact();
}

bool
EventQueue::runOne()
{
    for (;;) {
        if (heap_.empty())
            return false;
        const Node top = heap_.front();
        Slot &s = slot(top.slot);
        if (!s.armed || !genMatch(s.gen, top.gen)) {
            popTop();
            --staleNodes_;
            continue;
        }
        popTop();
        ENZIAN_ASSERT(top.when >= now_,
                      "event queue time went backwards");
        now_ = top.when;
        s.armed = false;
        ++s.gen;
        --live_;
        ++executed_;
        if (s.persistent) {
            // Run in place: the callback stays installed so the event
            // can re-arm without copying or allocating. The slot is
            // pinned for the duration; a release from inside the
            // callback is deferred until it returns.
            s.executing = true;
            s.cb();
            s.executing = false;
            if (s.releasePending) {
                s.releasePending = false;
                freeSlot(top.slot);
            }
        } else {
            // One-shot: move the callback out and recycle the slot
            // first, so the callback can freely schedule new events.
            EventFn cb = std::move(s.cb);
            freeSlot(top.slot);
            cb();
        }
        return true;
    }
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t n = 0;
    for (;;) {
        const Node *top = peekLive();
        if (top == nullptr || top->when > limit)
            break;
        if (runOne())
            ++n;
    }
    // Advance time to the limit even if nothing was pending there, so
    // callers can treat runUntil as "simulate this long".
    if (limit > now_)
        now_ = limit;
    return n;
}

Tick
EventQueue::nextEventTick()
{
    const Node *top = peekLive();
    return top != nullptr ? top->when : kNoEventTick;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t n = 0;
    while (runOne())
        ++n;
    return n;
}

std::uint32_t
EventQueue::acquirePersistent(EventFn cb, const char *what)
{
    const std::uint32_t idx = acquireSlot();
    Slot &s = slot(idx);
    s.cb = std::move(cb);
    s.what = what;
    s.persistent = true;
    return idx;
}

void
EventQueue::releasePersistent(std::uint32_t idx)
{
    Slot &s = slot(idx);
    if (s.executing) {
        s.releasePending = true;
        return;
    }
    cancelPersistent(idx);
    freeSlot(idx);
}

void
EventQueue::schedulePersistent(std::uint32_t idx, Tick when)
{
    ++scheduled_;
    scheduleReservedPersistent(idx, when, seq_++);
}

void
EventQueue::scheduleReservedPersistent(std::uint32_t idx, Tick when,
                                       std::uint64_t seq)
{
    Slot &s = slot(idx);
    ENZIAN_ASSERT(s.persistent, "schedule on released event slot");
    ENZIAN_ASSERT(!s.armed, "reusable event '%s' armed twice",
                  s.what ? s.what : "?");
    ENZIAN_ASSERT(when >= now_,
                  "scheduling event '%s' in the past (%llu < %llu)",
                  s.what ? s.what : "?",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
    s.armed = true;
    push(when, seq, static_cast<std::uint32_t>(s.gen), idx);
    ++live_;
}

void
EventQueue::cancelPersistent(std::uint32_t idx)
{
    Slot &s = slot(idx);
    if (!s.armed)
        return;
    s.armed = false;
    ++s.gen;
    --live_;
    ++staleNodes_;
    maybeCompact();
}

} // namespace enzian
