/**
 * @file
 * Shared per-direction domain-mode plumbing.
 *
 * Every full-duplex component that participates in parallel domain
 * mode (EciLink, EthernetLink) grows the same three
 * pieces of state: a source-domain clock per direction, an outbound
 * cross-domain channel per direction, and per-direction staged
 * statistics that fold into the aggregate at epoch barriers in a
 * fixed order. This header is that pattern, written once:
 *
 *  - DirDomainBinding owns the clock/channel pair per direction and
 *    the same-domain special case (no channels: deliveries stay
 *    local), plus the per-pair lookahead the component derives from
 *    its own latency floor.
 *  - DirStaged<T> owns the lazily-armed two-entry stage array whose
 *    allocation doubles as the "domain mode" flag, and folds the
 *    stages in direction order (0 then 1) so the folded aggregate is
 *    bit-identical for any thread count.
 */

#ifndef ENZIAN_SIM_DOMAIN_BINDING_HH
#define ENZIAN_SIM_DOMAIN_BINDING_HH

#include <array>
#include <memory>
#include <utility>

#include "base/logging.hh"
#include "base/units.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::sim {

/**
 * Per-direction clock + outbound channel for one full-duplex link
 * between two timing domains. Direction d is "side d sends": its
 * clock is side d's domain queue and its channel carries toward side
 * d ^ 1. When both sides share one domain there are no channels and
 * crossDomain() is false — deliveries should then be scheduled
 * locally on the (shared) clock.
 */
class DirDomainBinding
{
  public:
    /**
     * Bind side 0 to @p d0 and side 1 to @p d1, creating (or sharing)
     * the channel pair with @p pair_lookahead (0 = the scheduler's
     * base lookahead; see DomainScheduler::channel). Must precede the
     * scheduler start.
     */
    void
    bind(DomainScheduler &sched, TimingDomain &d0, TimingDomain &d1,
         Tick pair_lookahead = 0)
    {
        ENZIAN_ASSERT(!bound(), "direction binding bound twice");
        sched_ = &sched;
        clock_[0] = &d0.queue();
        clock_[1] = &d1.queue();
        if (&d0 != &d1) {
            chan_[0] = &sched.channel(d0, d1, pair_lookahead);
            chan_[1] = &sched.channel(d1, d0, pair_lookahead);
        }
    }

    bool bound() const { return clock_[0] != nullptr; }
    /** The scheduler bound to, or null before bind(). */
    DomainScheduler *scheduler() const { return sched_; }
    /** False when both sides share a domain (local delivery). */
    bool crossDomain() const { return chan_[0] != nullptr; }

    EventQueue &clock(std::size_t dir) { return *clock_[dir]; }
    /** Outbound channel for @p dir; null when !crossDomain(). */
    CrossDomainChannel *channel(std::size_t dir) { return chan_[dir]; }
    Tick now(std::size_t dir) const { return clock_[dir]->now(); }

  private:
    DomainScheduler *sched_ = nullptr;
    std::array<EventQueue *, 2> clock_{nullptr, nullptr};
    std::array<CrossDomainChannel *, 2> chan_{nullptr, nullptr};
};

/**
 * Two-entry staged state, one per direction, armed on entry to domain
 * mode (the allocation is the mode flag). Each entry is touched only
 * by its direction's source-domain thread during epochs; fold() runs
 * on the barrier coordinator in direction order, so folding is
 * deterministic for any thread count.
 */
template <typename T>
class DirStaged
{
  public:
    void
    arm()
    {
        ENZIAN_ASSERT(!armed(), "staged state armed twice");
        stage_ = std::make_unique<std::array<T, 2>>();
    }

    bool armed() const { return stage_ != nullptr; }

    T &operator[](std::size_t dir) { return (*stage_)[dir]; }
    const T &operator[](std::size_t dir) const { return (*stage_)[dir]; }

    /** Apply @p fn to direction 0's stage, then direction 1's. */
    template <typename F>
    void
    fold(F &&fn)
    {
        fn((*stage_)[0]);
        fn((*stage_)[1]);
    }

  private:
    std::unique_ptr<std::array<T, 2>> stage_;
};

} // namespace enzian::sim

#endif // ENZIAN_SIM_DOMAIN_BINDING_HH
