/**
 * @file
 * Conservative parallel discrete-event scheduler (PDES).
 *
 * The platform is sharded into timing domains — each a TimingDomain
 * owning its own EventQueue and the SimObjects bound to it. A machine
 * is exactly its two sockets: the CPU cluster, caches, DRAM and BMC
 * in one domain, the FPGA, its home agent, DRAM and accelerators in
 * the other; a rack adds one domain for its switch fabric. Domains
 * only interact through cross-domain channels, whose modeled link
 * latency gives a guaranteed lower bound on cross-domain reaction
 * time: the conservative lookahead of that channel, never below the
 * scheduler's base lookahead.
 *
 * The scheduler runs the domains in lockstep epochs (CHESSY-style
 * coupling over MGSim-style component DES):
 *
 *   1. T = min over domains of the next pending event tick.
 *   2. Every domain independently runs its queue up to the epoch end.
 *      With P participants (P = min(threads, domains), the caller of
 *      run() being participant 0), domain i always runs on participant
 *      i % P, in ascending id order — a fixed owner, so a domain's
 *      queue, slot arenas and model objects stay in one core's caches
 *      from epoch to epoch.
 *   3. Barrier: cross-domain messages (timestamped, at least the
 *      channel lookahead in the future — see CrossDomainChannel) are
 *      drained into their destination queues in a fixed merge order
 *      (destination domain id, then source domain id, then push
 *      order; the destination queue then orders by timestamp and
 *      insertion sequence), and registered barrier tasks (stats
 *      folds, tap flushes) run on the coordinator.
 *
 * Epoch length. In fixed mode the epoch is always the base lookahead
 * L: end = T + L - 1. With Options::adaptive set, the
 * coordinator computes the true lower bound on the next cross-domain
 * delivery (LBTS) before each epoch: for every domain d that has
 * pending events and outbound channels,
 *
 *     bound_d = max(nextEventTick_d, promise_d) + outLookahead_d
 *
 * where promise_d is the domain's no-sends-before promise (see
 * promiseNoSendsBefore) and outLookahead_d the minimum lookahead over
 * d's outbound channels. No message can deliver before min_d bound_d,
 * so the epoch may stretch to that bound minus one — capped at
 * max_grow base lookaheads, never shorter than the fixed epoch. The
 * decision reads only pre-epoch queue state, promises and static
 * lookaheads, never the wall clock, so the epoch sequence — and with
 * it every simulated timestamp and statistic — stays a pure function
 * of the simulation and is bit-identical regardless of thread count.
 *
 * Synchronization is a spin-then-wait epoch generation /
 * completion-count handshake; the release/acquire pair on those
 * atomics is what publishes queue and channel state between threads.
 */

#ifndef ENZIAN_SIM_DOMAIN_SCHEDULER_HH
#define ENZIAN_SIM_DOMAIN_SCHEDULER_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "sim/cross_domain_channel.hh"
#include "sim/event_queue.hh"

namespace enzian::sim {

class DomainScheduler;

/**
 * One shard of the simulated platform: an EventQueue plus whatever
 * SimObjects were constructed against it. Created via
 * DomainScheduler::addDomain(); identified by a dense id in creation
 * order.
 */
class TimingDomain
{
  public:
    TimingDomain(const TimingDomain &) = delete;
    TimingDomain &operator=(const TimingDomain &) = delete;

    EventQueue &queue() { return eq_; }
    const EventQueue &queue() const { return eq_; }
    const std::string &name() const { return name_; }
    std::uint32_t id() const { return id_; }

    /** Events executed in this domain over the whole run. */
    std::uint64_t eventsExecuted() const { return events_.value(); }

    /**
     * Promise that no event in this domain will push into an outbound
     * cross-domain channel while the domain clock is before @p until.
     * The adaptive scheduler uses the promise to stretch epochs past
     * dense local-only activity; a push that breaks it dies in the
     * channel's contract check. The promise is a single claim about
     * the whole domain — only raise it (it is monotonic, and expires
     * by itself once the clock passes it) from code that knows every
     * possible sender in the domain is quiescent. Call it from the
     * domain's own events (or between runs); the coordinator reads it
     * at the next barrier under the epoch handshake.
     */
    void
    promiseNoSendsBefore(Tick until)
    {
        if (until > promise_)
            promise_ = until;
    }

  private:
    friend class DomainScheduler;

    TimingDomain(std::string name, std::uint32_t id)
        : name_(std::move(name)), id_(id)
    {
    }

    std::string name_;
    std::uint32_t id_;
    EventQueue eq_;
    /** Events run in the current epoch; written by the worker that
     *  ran the domain, read by the coordinator after the barrier
     *  handshake. */
    std::uint64_t epochExecuted_ = 0;
    /** No-sends-before promise; written in-domain, read at barriers. */
    Tick promise_ = 0;
    /** Min lookahead over outbound channels (kNoEventTick when the
     *  domain has none); frozen at scheduler start. */
    Tick outLookahead_ = EventQueue::kNoEventTick;
    Counter events_;
    Counter stalls_;
};

/** Epoch-synchronized conservative PDES driver (see file comment). */
class DomainScheduler
{
  public:
    /** Epoch policy knobs (see the file comment for the algorithm). */
    struct Options
    {
        /** Grow epochs to the provable cross-domain delivery bound. */
        bool adaptive = false;
        /** Epoch growth cap, in multiples of the base lookahead. */
        std::uint32_t max_grow = 16;
    };

    /**
     * @param name stat-group name ("<machine>.sched" by convention).
     * @param lookahead minimum cross-domain latency in ticks; must be
     *        > 0. Derive it from the platform (e.g.
     *        eci::EciLink::minCrossLatency), never hard-code it.
     *        Channels may declare larger per-pair lookaheads, never
     *        smaller ones; the fixed epoch step is this base.
     * @param threads total threads participating in epoch execution,
     *        including the caller of run(); 0 is treated as 1.
     */
    DomainScheduler(std::string name, Tick lookahead,
                    std::uint32_t threads, Options opts);
    DomainScheduler(std::string name, Tick lookahead,
                    std::uint32_t threads);
    ~DomainScheduler();

    DomainScheduler(const DomainScheduler &) = delete;
    DomainScheduler &operator=(const DomainScheduler &) = delete;

    /** Create a new timing domain. Must precede the first run. */
    TimingDomain &addDomain(const std::string &name);

    std::size_t domainCount() const { return domains_.size(); }
    TimingDomain &domain(std::size_t i) { return *domains_[i]; }

    /**
     * Get-or-create the mailbox carrying events from @p src to
     * @p dst. Channel creation must precede the first run; pushes are
     * legal from the source domain while running.
     *
     * @param lookahead this user's bound on how soon after a source
     *        event a message may deliver (0 = the scheduler's base
     *        lookahead); a nonzero bound below the base dies. When
     *        several users share one channel the channel enforces the
     *        minimum of their requests, so registration order never
     *        matters.
     */
    CrossDomainChannel &channel(TimingDomain &src, TimingDomain &dst,
                                Tick lookahead = 0);

    /**
     * Register a function to run on the coordinator thread at every
     * epoch barrier, after channels are drained, in registration
     * order. Used for deterministic folds of per-domain staged state
     * (stats, taps) while all workers are quiescent.
     */
    void addBarrierTask(std::function<void()> fn);

    /** Run epochs until every domain queue drains. @return events. */
    std::uint64_t run();

    /**
     * Run epochs until simulated time @p limit, then advance every
     * domain to @p limit. @return events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /** Simulated time every domain has reached (between runs). */
    Tick now() const { return now_; }

    /** Base lookahead: the fixed epoch step and every channel's
     *  floor. */
    Tick lookahead() const { return lookahead_; }
    std::uint32_t threads() const { return threads_; }
    bool adaptive() const { return opts_.adaptive; }
    const std::string &name() const { return stats_.name(); }

    std::uint64_t epochs() const { return epochs_.value(); }
    std::uint64_t eventsExecuted() const { return totalEvents_; }
    /** Epochs stretched past the base step by the adaptive policy. */
    std::uint64_t adaptiveGrows() const { return adaptiveGrows_.value(); }
    /** Fixed-length epochs immediately following a stretched one. */
    std::uint64_t
    adaptiveShrinks() const
    {
        return adaptiveShrinks_.value();
    }

    /**
     * Wall-clock nanoseconds spent inside epoch barriers (drains,
     * barrier tasks, stat folds) since construction. Host-time
     * profiling only — deliberately kept out of the stats registry so
     * registry exports stay byte-identical across runs and machines.
     */
    std::uint64_t barrierWallNs() const { return barrierWallNs_; }

  private:
    std::uint64_t runLoop(Tick limit, bool bounded);
    Tick epochEndFor(Tick next, Tick limit, bool bounded);
    void executeEpoch(Tick end);
    void runOwnedDomains(std::uint32_t participant);
    void workerLoop(std::uint32_t participant);
    void startWorkers();
    void stopWorkers();
    void barrier();
    Tick minNextTick();

    StatGroup stats_;
    Tick lookahead_;
    std::uint32_t threads_;
    Options opts_;
    Tick now_ = 0;
    bool started_ = false;

    std::vector<std::unique_ptr<TimingDomain>> domains_;
    std::vector<std::unique_ptr<CrossDomainChannel>> channels_;
    /** channels_ sorted by (dst id, src id); rebuilt at run start. */
    std::vector<CrossDomainChannel *> drainOrder_;
    std::vector<std::function<void()>> barrierTasks_;

    // Epoch handshake (see workerLoop for the protocol).
    /** Coordinator plus workers; domain i runs on participant
     *  i % participants_. Frozen by startWorkers(). */
    std::uint32_t participants_ = 1;
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> epochGen_{0};
    std::atomic<std::uint32_t> doneCount_{0};
    std::atomic<bool> stop_{false};
    Tick epochEnd_ = 0;

    /** Did the previous epoch grow past the base step? */
    bool lastGrew_ = false;

    std::uint64_t totalEvents_ = 0;
    std::uint64_t barrierWallNs_ = 0;
    Counter epochs_;
    Counter crossMsgs_;
    Counter adaptiveGrows_;
    Counter adaptiveShrinks_;
    Accumulator imbalance_;
    /** Epoch length in multiples of the base lookahead. */
    Histogram epochLen_{0.0, 64.0, 64};
};

/**
 * The thread count in ENZIAN_THREADS' @p value: 0 when it is unset or
 * empty (the caller applies its own default), else a positive
 * decimal; anything else is fatal. Every bench and tool reads the
 * variable through this.
 */
std::uint32_t envThreads(const char *value = std::getenv("ENZIAN_THREADS"));

} // namespace enzian::sim

#endif // ENZIAN_SIM_DOMAIN_SCHEDULER_HH
