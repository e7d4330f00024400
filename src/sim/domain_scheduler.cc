/**
 * @file
 * DomainScheduler implementation.
 *
 * Handshake protocol. The coordinator (whichever thread called run())
 * publishes an epoch by storing the epoch end tick and bumping
 * epochGen_ with release order; workers wait for the bump with
 * acquire order, run the queues of the domains they own to the epoch
 * end, and signal completion on doneCount_ with acq_rel. The
 * coordinator runs its own domains, then waits for doneCount_ to
 * reach the worker count. The release/acquire pairs on epochGen_ and
 * doneCount_ are the only synchronization the queues and channels
 * need: between them exactly one thread touches any given domain, and
 * between epochs only the coordinator runs.
 *
 * Ownership. With P participants, participant p (the coordinator is
 * 0; workers learn their index when spawned) runs every domain i with
 * i % P == p, in ascending id order, every epoch. Which thread runs a
 * domain never affects the simulation; it decides only where the
 * domain's queue, slot arenas and model objects live in the cache
 * hierarchy. A fixed owner keeps that state on one core from epoch
 * to epoch; the win is locality, not extra parallelism. The modulo
 * rule also suits the machine and cluster layouts: a machine adds its
 * CPU domain before its FPGA domain and a rack adds its network
 * domain first, so at two participants the coordinator owns the
 * network and FPGA domains that exchange frames and the worker owns
 * the CPU domains. A contiguous block split measured slower.
 *
 * Waiting is spin-then-yield-then-futex: a short pause loop for the
 * common case where the other side arrives within microseconds, a
 * yield loop so an oversubscribed host (fewer cores than threads)
 * makes progress, then C++20 atomic wait/notify so an idle worker
 * sleeps properly between epochs.
 *
 * Epoch sizing (epochEndFor) runs on the coordinator between epochs
 * and reads only queue state, promises and static lookaheads — the
 * wall clock is measured around the barrier purely for profiling and
 * never feeds back into any decision.
 */

#include "sim/domain_scheduler.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <string_view>

#include "base/logging.hh"
#include "obs/registry.hh"

namespace enzian::sim {

namespace {

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

constexpr int kSpinIters = 256;
constexpr int kYieldIters = 1024;

/** a + b saturating at kNoEventTick - 1 (a legal epoch end). */
inline Tick
saturatingAdd(Tick a, Tick b)
{
    const Tick sum = a + b;
    if (sum < a)
        return EventQueue::kNoEventTick - 1;
    return sum;
}

} // namespace

DomainScheduler::DomainScheduler(std::string name, Tick lookahead,
                                 std::uint32_t threads, Options opts)
    : stats_(std::move(name)), lookahead_(lookahead),
      threads_(threads == 0 ? 1 : threads), opts_(opts)
{
    ENZIAN_ASSERT(lookahead_ > 0,
                  "domain scheduler needs a positive lookahead");
    ENZIAN_ASSERT(opts_.max_grow > 0,
                  "adaptive epoch growth cap must be positive");
    stats_.addCounter("epochs", &epochs_);
    stats_.addCounter("cross_msgs", &crossMsgs_);
    stats_.addCounter("adaptive_grows", &adaptiveGrows_);
    stats_.addCounter("adaptive_shrinks", &adaptiveShrinks_);
    stats_.addAccumulator("epoch_imbalance", &imbalance_);
    stats_.addHistogram("epoch_len", &epochLen_);
    obs::Registry::global().add(&stats_);
}

DomainScheduler::DomainScheduler(std::string name, Tick lookahead,
                                 std::uint32_t threads)
    : DomainScheduler(std::move(name), lookahead, threads, Options())
{
}

DomainScheduler::~DomainScheduler()
{
    stopWorkers();
    obs::Registry::global().remove(&stats_);
}

TimingDomain &
DomainScheduler::addDomain(const std::string &name)
{
    ENZIAN_ASSERT(!started_, "addDomain after the scheduler started");
    const auto id = static_cast<std::uint32_t>(domains_.size());
    auto *d = new TimingDomain(name, id);
    domains_.emplace_back(d);
    stats_.addCounter("d" + std::to_string(id) + "_events",
                      &d->events_);
    stats_.addCounter("d" + std::to_string(id) + "_stalls",
                      &d->stalls_);
    return *d;
}

CrossDomainChannel &
DomainScheduler::channel(TimingDomain &src, TimingDomain &dst,
                         Tick lookahead)
{
    ENZIAN_ASSERT(&src != &dst, "channel to own domain");
    const Tick req = lookahead == 0 ? lookahead_ : lookahead;
    ENZIAN_ASSERT(req >= lookahead_,
                  "channel lookahead %llu below the scheduler's %llu",
                  static_cast<unsigned long long>(req),
                  static_cast<unsigned long long>(lookahead_));
    for (auto &ch : channels_) {
        if (ch->srcDomainId() == src.id() &&
            ch->dstDomainId() == dst.id()) {
            // Shared channel: enforce the tightest bound any user
            // asked for. min() is order-independent, so the result
            // never depends on binding order.
            if (req < ch->lookahead_) {
                ENZIAN_ASSERT(!started_, "channel lookahead tightened "
                                         "after the scheduler started");
                ch->lookahead_ = req;
            }
            return *ch;
        }
    }
    ENZIAN_ASSERT(!started_,
                  "channel creation after the scheduler started");
    channels_.emplace_back(new CrossDomainChannel(
        src.queue(), dst.queue(), src.id(), dst.id(), req,
        &src.promise_));
    return *channels_.back();
}

void
DomainScheduler::addBarrierTask(std::function<void()> fn)
{
    ENZIAN_ASSERT(!started_,
                  "barrier task registration after the scheduler "
                  "started");
    barrierTasks_.push_back(std::move(fn));
}

Tick
DomainScheduler::minNextTick()
{
    Tick next = EventQueue::kNoEventTick;
    for (auto &d : domains_)
        next = std::min(next, d->eq_.nextEventTick());
    return next;
}

void
DomainScheduler::startWorkers()
{
    if (started_)
        return;
    started_ = true;
    // Freeze each domain's outbound bound: the tightest lookahead over
    // the channels it can send through (never below the base, which
    // channel() enforces).
    for (auto &d : domains_)
        d->outLookahead_ = EventQueue::kNoEventTick;
    for (auto &ch : channels_) {
        TimingDomain &src = *domains_[ch->srcDomainId()];
        src.outLookahead_ =
            std::min(src.outLookahead_, ch->lookahead_);
    }
    // Rebuild the drain order: (destination id, source id) regardless
    // of channel creation order, so the barrier merge is a property
    // of the domain graph alone.
    drainOrder_.clear();
    for (auto &ch : channels_)
        drainOrder_.push_back(ch.get());
    std::sort(drainOrder_.begin(), drainOrder_.end(),
              [](const CrossDomainChannel *a,
                 const CrossDomainChannel *b) {
                  if (a->dstDomainId() != b->dstDomainId())
                      return a->dstDomainId() < b->dstDomainId();
                  return a->srcDomainId() < b->srcDomainId();
              });
    // Never more participants than domains; the coordinator is one.
    const auto cap = static_cast<std::uint32_t>(
        std::max<std::size_t>(domains_.size(), 1));
    participants_ = std::min(threads_, cap);
    for (std::uint32_t p = 1; p < participants_; ++p)
        workers_.emplace_back([this, p] { workerLoop(p); });
}

void
DomainScheduler::stopWorkers()
{
    if (workers_.empty())
        return;
    stop_.store(true, std::memory_order_release);
    epochGen_.fetch_add(1, std::memory_order_release);
    epochGen_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

void
DomainScheduler::runOwnedDomains(std::uint32_t participant)
{
    for (std::size_t i = participant; i < domains_.size();
         i += participants_) {
        TimingDomain &d = *domains_[i];
        d.epochExecuted_ = d.eq_.runUntil(epochEnd_);
    }
}

void
DomainScheduler::workerLoop(std::uint32_t participant)
{
    std::uint64_t seen = 0;
    for (;;) {
        // Wait for the next epoch publication (gen > seen).
        std::uint64_t g = epochGen_.load(std::memory_order_acquire);
        int spins = 0;
        while (g == seen) {
            if (spins < kSpinIters) {
                ++spins;
                cpuRelax();
            } else if (spins < kSpinIters + kYieldIters) {
                ++spins;
                std::this_thread::yield();
            } else {
                epochGen_.wait(g, std::memory_order_acquire);
            }
            g = epochGen_.load(std::memory_order_acquire);
        }
        seen = g;
        if (stop_.load(std::memory_order_acquire))
            return;
        runOwnedDomains(participant);
        doneCount_.fetch_add(1, std::memory_order_acq_rel);
        doneCount_.notify_all();
    }
}

void
DomainScheduler::executeEpoch(Tick end)
{
    epochEnd_ = end;
    if (workers_.empty()) {
        // Sequential mode: the caller is the only participant, so it
        // owns every domain and runs them in id order.
        runOwnedDomains(0);
        return;
    }
    doneCount_.store(0, std::memory_order_relaxed);
    epochGen_.fetch_add(1, std::memory_order_release);
    epochGen_.notify_all();
    runOwnedDomains(0);
    const auto want = static_cast<std::uint32_t>(workers_.size());
    std::uint32_t done = doneCount_.load(std::memory_order_acquire);
    int spins = 0;
    while (done < want) {
        if (spins < kSpinIters) {
            ++spins;
            cpuRelax();
        } else if (spins < kSpinIters + kYieldIters) {
            ++spins;
            std::this_thread::yield();
        } else {
            doneCount_.wait(done, std::memory_order_acquire);
        }
        done = doneCount_.load(std::memory_order_acquire);
    }
}

void
DomainScheduler::barrier()
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t crossed = 0;
    for (CrossDomainChannel *ch : drainOrder_)
        crossed += ch->drain();
    crossMsgs_.inc(crossed);
    for (auto &task : barrierTasks_)
        task();

    epochs_.inc();
    std::uint64_t epochTotal = 0;
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    for (auto &d : domains_) {
        const std::uint64_t e = d->epochExecuted_;
        d->events_.inc(e);
        if (e == 0)
            d->stalls_.inc();
        epochTotal += e;
        lo = std::min(lo, e);
        hi = std::max(hi, e);
    }
    totalEvents_ += epochTotal;
    if (epochTotal > 0) {
        const double mean = static_cast<double>(epochTotal) /
                            static_cast<double>(domains_.size());
        imbalance_.sample(static_cast<double>(hi - lo) / mean);
    }
    barrierWallNs_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

Tick
DomainScheduler::epochEndFor(Tick next, Tick limit, bool bounded)
{
    // Closed fixed epoch [next, next + step - 1]: any cross-domain
    // message sent inside it delivers at >= send + step > epoch end.
    Tick end = saturatingAdd(next, lookahead_ - 1);
    if (bounded && end > limit)
        end = limit;

    bool grew = false;
    if (opts_.adaptive) {
        // LBTS: the earliest tick any cross-domain message could
        // still deliver at. A domain contributes only if it has both
        // pending events (events are the only source of pushes) and
        // outbound channels; its first possible push is at
        // max(next event, no-sends-before promise).
        Tick bound = EventQueue::kNoEventTick;
        for (auto &d : domains_) {
            if (d->outLookahead_ == EventQueue::kNoEventTick)
                continue;
            const Tick n = d->eq_.nextEventTick();
            if (n == EventQueue::kNoEventTick)
                continue;
            const Tick first = std::max(n, d->promise_);
            bound =
                std::min(bound, saturatingAdd(first, d->outLookahead_));
        }
        const Tick span = static_cast<Tick>(opts_.max_grow) * lookahead_;
        const bool spanOverflow = span / lookahead_ != opts_.max_grow;
        Tick grown = spanOverflow ? EventQueue::kNoEventTick - 1
                                  : saturatingAdd(next, span - 1);
        if (bound != EventQueue::kNoEventTick)
            grown = std::min(grown, bound - 1);
        if (bounded && grown > limit)
            grown = limit;
        if (grown > end) {
            end = grown;
            grew = true;
        }
    }
    if (grew)
        adaptiveGrows_.inc();
    else if (lastGrew_)
        adaptiveShrinks_.inc();
    lastGrew_ = grew;
    epochLen_.sample(static_cast<double>(end - next + 1) /
                     static_cast<double>(lookahead_));
    return end;
}

std::uint64_t
DomainScheduler::runLoop(Tick limit, bool bounded)
{
    ENZIAN_ASSERT(!domains_.empty(), "scheduler has no domains");
    startWorkers();
    const std::uint64_t before = totalEvents_;
    // Harness code running between epochs (e.g. a bench issuing the
    // first transfers before run()) may send straight into a channel;
    // drain those so the loop's first minNextTick() can see them.
    // Inside the loop every barrier leaves the channels empty.
    {
        std::uint64_t crossed = 0;
        for (CrossDomainChannel *ch : drainOrder_)
            crossed += ch->drain();
        crossMsgs_.inc(crossed);
    }
    for (;;) {
        const Tick next = minNextTick();
        if (next == EventQueue::kNoEventTick)
            break;
        if (bounded && next > limit)
            break;
        const Tick end = epochEndFor(next, limit, bounded);
        executeEpoch(end);
        now_ = end;
        barrier();
    }
    if (bounded && limit > now_) {
        // Nothing pending up to the limit; advance every clock.
        for (auto &d : domains_)
            d->eq_.runUntil(limit);
        now_ = limit;
    }
    return totalEvents_ - before;
}

std::uint64_t
DomainScheduler::run()
{
    return runLoop(0, false);
}

std::uint64_t
DomainScheduler::runUntil(Tick limit)
{
    return runLoop(limit, true);
}

std::uint32_t
envThreads(const char *value)
{
    if (!value || !*value)
        return 0;
    const std::string_view s(value);
    std::uint32_t threads = 0;
    const auto [end, ec] =
        std::from_chars(s.data(), s.data() + s.size(), threads);
    if (ec != std::errc() || end != s.data() + s.size() || threads == 0)
        fatal("ENZIAN_THREADS='%s' is not a positive decimal thread "
              "count", value);
    return threads;
}

} // namespace enzian::sim
