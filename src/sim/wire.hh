/**
 * @file
 * One direction of a point-to-point link.
 *
 * A Wire delivers each pushed item to the far end at its own tick, in
 * push order. On one event queue, or with both ends in one timing
 * domain, the items ride a DelayLine on that queue; with the ends in
 * different domains they ride a ChannelLane through the scheduler's
 * channel. The receiver gets (tick, item) either way, so a link sends
 * with one push() wherever its ends run.
 */

#ifndef ENZIAN_SIM_WIRE_HH
#define ENZIAN_SIM_WIRE_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "base/logging.hh"
#include "sim/channel_lane.hh"
#include "sim/delay_line.hh"
#include "sim/domain_binding.hh"

namespace enzian::sim {

/** One link direction carrying @p T items; not copyable or movable,
 *  like the DelayLine it holds. */
template <typename T>
class Wire
{
  public:
    /** Delivery callback: (delivery tick, the item). */
    using Deliver = typename DelayLine<T>::Deliver;

    /** Deliver on @p eq through @p deliver. */
    void
    init(EventQueue &eq, Deliver deliver, const char *what = nullptr)
    {
        deliver_ = std::move(deliver);
        what_ = what;
        line_.init(eq, deliver_, what_);
    }

    /**
     * Carry direction @p dir of @p binding: over its channel when the
     * ends are in different domains, else on their shared queue. After
     * init(), before the scheduler starts, with nothing in flight.
     */
    void
    bind(DirDomainBinding &binding, std::size_t dir)
    {
        ENZIAN_ASSERT(!lane_, "wire '%s' bound twice", what_ ? what_ : "?");
        if (binding.crossDomain()) {
            lane_ = std::make_unique<ChannelLane<T>>();
            lane_->attach(*binding.channel(dir), deliver_);
        } else {
            line_.init(binding.clock(dir), deliver_, what_);
        }
    }

    /** Deliver @p item at @p when (>= the last pushed tick). */
    void
    push(Tick when, T &&item)
    {
        if (lane_)
            lane_->push(when, std::move(item));
        else
            line_.push(when, std::move(item));
    }

  private:
    Deliver deliver_;
    const char *what_ = nullptr;
    DelayLine<T> line_;
    /** Set when bound across domains; line_ is idle from then on. */
    std::unique_ptr<ChannelLane<T>> lane_;
};

} // namespace enzian::sim

#endif // ENZIAN_SIM_WIRE_HH
