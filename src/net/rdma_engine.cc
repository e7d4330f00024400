/**
 * @file
 * RDMA engine implementation.
 *
 * Requests and responses travel as WireRequest frame bodies in
 * correctly sized frames (header plus payload), so all timing is
 * accounted.
 */

#include "net/rdma_engine.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "obs/request_context.hh"
#include "obs/span_tracer.hh"

namespace enzian::net {

void
DirectDramPath::read(Addr off, std::uint8_t *dst, std::uint64_t len,
                     Done done)
{
    const Tick ready = mc_.read(mc_.now(), off, dst, len).done;
    mc_.eventq().schedule(
        ready, [done = std::move(done), ready]() { done(ready); },
        "rdma-dram-read");
}

void
DirectDramPath::write(Addr off, const std::uint8_t *src,
                      std::uint64_t len, Done done)
{
    const Tick durable = mc_.write(mc_.now(), off, src, len).done;
    mc_.eventq().schedule(
        durable, [done = std::move(done), durable]() { done(durable); },
        "rdma-dram-write");
}

void
EciHostPath::read(Addr off, std::uint8_t *dst, std::uint64_t len,
                  Done done)
{
    const Addr base = base_ + off;
    ENZIAN_ASSERT(cache::isLineAligned(base) &&
                      len % cache::lineSize == 0,
                  "ECI host path requires line-aligned transfers");
    const std::uint64_t lines = len / cache::lineSize;
    auto remaining = std::make_shared<std::uint64_t>(lines);
    auto last = std::make_shared<Tick>(0);
    auto shared_done = std::make_shared<Done>(std::move(done));
    for (std::uint64_t i = 0; i < lines; ++i) {
        agent_.readLineUncached(
            base + i * cache::lineSize, dst + i * cache::lineSize,
            [remaining, last, shared_done](Tick t) {
                *last = std::max(*last, t);
                if (--*remaining == 0)
                    (*shared_done)(*last);
            });
    }
}

void
EciHostPath::write(Addr off, const std::uint8_t *src, std::uint64_t len,
                   Done done)
{
    const Addr base = base_ + off;
    ENZIAN_ASSERT(cache::isLineAligned(base) &&
                      len % cache::lineSize == 0,
                  "ECI host path requires line-aligned transfers");
    const std::uint64_t lines = len / cache::lineSize;
    auto remaining = std::make_shared<std::uint64_t>(lines);
    auto last = std::make_shared<Tick>(0);
    auto shared_done = std::make_shared<Done>(std::move(done));
    for (std::uint64_t i = 0; i < lines; ++i) {
        agent_.writeLineUncached(
            base + i * cache::lineSize, src + i * cache::lineSize,
            [remaining, last, shared_done](Tick t) {
                *last = std::max(*last, t);
                if (--*remaining == 0)
                    (*shared_done)(*last);
            });
    }
}

void
PcieHostPath::read(Addr off, std::uint8_t *dst, std::uint64_t len,
                   Done done)
{
    dma_.hostToDevice(hostBase_ + off, stagingBase_, len,
                      [this, dst, len, done = std::move(done)](Tick t) {
                          dma_.device().store().read(stagingBase_, dst,
                                                     len);
                          done(t);
                      });
}

void
PcieHostPath::write(Addr off, const std::uint8_t *src, std::uint64_t len,
                    Done done)
{
    dma_.device().store().write(stagingBase_, src, len);
    dma_.deviceToHost(stagingBase_, hostBase_ + off, len,
                      std::move(done));
}

RdmaTarget::RdmaTarget(std::string name, EventQueue &eq, Switch &sw,
                       MemoryPath &mem, const Config &cfg)
    : SimObject(std::move(name), eq), sw_(sw), mem_(mem), cfg_(cfg)
{
    sw_.setEndpoint(cfg_.port, [this](Tick, Frame &&frame) {
        eventq().scheduleDelta(
            units::ns(cfg_.request_proc_ns),
            [this, body = std::move(frame.body)]() mutable {
                serve(std::move(body.get<WireRequest>()));
            },
            "rdma-request-proc");
    });
    stats().addCounter("requests_served", &served_);
    stats().addCounter("bytes", &bytes_);
    stats().addCounter("stale_requests", &staleReqs_);
    stats().addCounter("fault_responses_dropped", &rspsDropped_);
    stats().addAccumulator("service_ns", &service_);
}

void
RdmaTarget::setHandler(RdmaOp op, Handler h)
{
    ENZIAN_ASSERT(op != RdmaOp::Read && op != RdmaOp::Write,
                  "Read and Write are one-sided");
    const auto code = static_cast<std::size_t>(op);
    if (handlers_.size() <= code)
        handlers_.resize(code + 1);
    handlers_[code] = std::move(h);
}

void
RdmaTarget::setFaults(Rng *rng, double response_drop_prob)
{
    faultRng_ = rng;
    rspDropProb_ = response_drop_prob;
}

void
RdmaTarget::serve(WireRequest &&wr)
{
    if (now() >= wr.expires) {
        // The initiator's retry timer for this attempt has fired (on
        // one queue it was scheduled first, so it ran first): the
        // attempt is abandoned and the retry comes as a new one.
        staleReqs_.inc();
        return;
    }
    served_.inc();
    auto req = std::make_shared<WireRequest>(std::move(wr));
    bytes_.inc(req->len);
    const Tick t0 = now();
    if (req->op == RdmaOp::Read) {
        req->data.resize(req->len);
        mem_.read(req->off, req->data.data(), req->len,
                  [this, req, t0](Tick t) {
                      service_.sample(units::toNanos(t - t0));
                      ENZIAN_SPAN(name(), "read", t0, t);
                      ENZIAN_FLOW_STEP(name(), "read", t, req->flowId);
                      respond(std::move(*req));
                  });
    } else if (req->op == RdmaOp::Write) {
        mem_.write(req->off, req->data.data(), req->len,
                   [this, req, t0](Tick t) {
                       service_.sample(units::toNanos(t - t0));
                       ENZIAN_SPAN(name(), "write", t0, t);
                       ENZIAN_FLOW_STEP(name(), "write", t,
                                        req->flowId);
                       req->data.clear(); // the response carries none
                       respond(std::move(*req));
                   });
    } else {
        const auto code = static_cast<std::size_t>(req->op);
        ENZIAN_ASSERT(code < handlers_.size() && handlers_[code],
                      "no handler for RDMA op %zu", code);
        const Tick ready = std::max(handlers_[code](*req), t0);
        service_.sample(units::toNanos(ready - t0));
        eventq().schedule(
            ready,
            [this, req, t0, ready]() {
                ENZIAN_SPAN(name(), "call", t0, ready);
                ENZIAN_FLOW_STEP(name(), "call", ready, req->flowId);
                respond(std::move(*req));
            },
            "rdma-call-reply");
    }
}

void
RdmaTarget::respond(WireRequest &&req)
{
    if (faultRng_ && rspDropProb_ > 0.0 &&
        faultRng_->chance(rspDropProb_)) {
        // Lost on the wire; the initiator's timeout recovers it.
        rspsDropped_.inc();
        return;
    }
    sw_.sendFrom(cfg_.port, makeFrame(rdmaHeaderBytes + req.data.size(),
                                      req.srcPort, std::move(req)));
}

RdmaInitiator::RdmaInitiator(std::string name, EventQueue &eq,
                             Switch &sw, std::uint32_t port,
                             std::uint32_t target_port)
    : SimObject(std::move(name), eq), sw_(sw), port_(port),
      targetPort_(target_port)
{
    sw_.setEndpoint(port_, [this](Tick when, Frame &&frame) {
        onFrame(when, std::move(frame));
    });
    stats().addCounter("retries", &retries_);
    stats().addCounter("fault_requests_dropped", &reqsDropped_);
    stats().addCounter("stale_completions", &staleCompletions_);
    stats().addCounter("abandoned", &abandoned_);
}

void
RdmaInitiator::enableRecovery(double timeout_us,
                              std::uint32_t max_retries,
                              bool abandon_after_retries)
{
    recoveryTimeout_ = units::us(timeout_us);
    maxRetries_ = max_retries;
    abandonAfterRetries_ = abandon_after_retries;
}

void
RdmaInitiator::setFaults(Rng *rng, double request_drop_prob)
{
    ENZIAN_ASSERT(recoveryTimeout_ || !rng || request_drop_prob == 0.0,
                  "request drops without recovery would hang");
    faultRng_ = rng;
    reqDropProb_ = request_drop_prob;
}

void
RdmaInitiator::read(Addr off, std::uint8_t *dst, std::uint64_t len,
                    Done done)
{
    readFrom(targetPort_, off, dst, len, std::move(done));
}

void
RdmaInitiator::write(Addr off, const std::uint8_t *src, std::uint64_t len,
                     Done done)
{
    writeTo(targetPort_, off, src, len, std::move(done));
}

void
RdmaInitiator::readFrom(std::uint32_t target_port, Addr off,
                        std::uint8_t *dst, std::uint64_t len, Done done)
{
    Pending p;
    p.req.op = RdmaOp::Read;
    p.req.off = off;
    p.req.len = len;
    p.req.flowId = obs::currentFlowId();
    p.dst = dst;
    p.done = std::move(done);
    p.target = target_port;
    issue(std::move(p));
}

void
RdmaInitiator::writeTo(std::uint32_t target_port, Addr off,
                       const std::uint8_t *src, std::uint64_t len,
                       Done done)
{
    Pending p;
    p.req.op = RdmaOp::Write;
    p.req.off = off;
    p.req.len = len;
    p.req.data.assign(src, src + len);
    p.req.flowId = obs::currentFlowId();
    p.done = std::move(done);
    p.target = target_port;
    issue(std::move(p));
}

void
RdmaInitiator::call(RdmaTarget::WireRequest req, CallDone done)
{
    ENZIAN_ASSERT(req.op != RdmaOp::Read && req.op != RdmaOp::Write,
                  "a call needs a handler op code");
    Pending p;
    p.req = std::move(req);
    p.req.flowId = obs::currentFlowId();
    p.callDone = std::move(done);
    p.target = targetPort_;
    issue(std::move(p));
}

void
RdmaInitiator::issue(Pending p)
{
    const std::uint64_t id = nextId_++;
    // Without recovery there is no retry, so the payload moves into
    // the frame; the header fields stay behind in p.req either way.
    RdmaTarget::WireRequest req =
        recoveryTimeout_ ? p.req : std::move(p.req);
    req.srcPort = port_;
    req.id = id;
    p.issued = now();
    if (recoveryTimeout_) {
        const Tick delay =
            recoveryTimeout_ << std::min<std::uint32_t>(p.attempts, 4);
        p.retryEv = eventq().scheduleDelta(
            delay, [this, id]() { onTimeout(id); }, "rdma-retry");
        req.expires = now() + delay;
    }
    Frame frame = makeFrame(rdmaHeaderBytes + req.data.size(), p.target,
                            std::move(req));
    pending_.emplace(id, std::move(p));
    // A dropped request never reaches the wire, but the bookkeeping
    // above stays intact so the timeout recovers it.
    if (faultRng_ && reqDropProb_ > 0.0 &&
        faultRng_->chance(reqDropProb_)) {
        reqsDropped_.inc();
        return;
    }
    sw_.sendFrom(port_, std::move(frame));
}

void
RdmaInitiator::onTimeout(std::uint64_t id)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        return; // completed; stale timer
    Pending p = std::move(it->second);
    pending_.erase(it);
    ++p.attempts;
    if (p.attempts > maxRetries_ && abandonAfterRetries_) {
        // Give up like a real client: the request is lost (never
        // completed) rather than retried into a saturated wire
        // forever.
        abandoned_.inc();
        return;
    }
    ENZIAN_ASSERT(p.attempts <= maxRetries_,
                  "RDMA request %llu unanswered after %u retries "
                  "(livelock?)",
                  static_cast<unsigned long long>(id), p.attempts - 1);
    retries_.inc();
    // The old attempt is dead: a target still holding it drops it as
    // expired, and a late completion finds no pending entry. The
    // retry runs under a fresh id so a slow serve of the old attempt
    // can never satisfy (or corrupt) the new one.
    issue(std::move(p));
}

void
RdmaInitiator::onFrame(Tick when, Frame &&frame)
{
    auto &rsp = frame.body.get<RdmaTarget::WireRequest>();
    auto it = pending_.find(rsp.id);
    if (it == pending_.end() && recoveryTimeout_) {
        // A late completion of an attempt we already abandoned.
        staleCompletions_.inc();
        return;
    }
    ENZIAN_ASSERT(it != pending_.end(),
                  "RDMA completion for unknown %llu",
                  static_cast<unsigned long long>(rsp.id));
    Pending p = std::move(it->second);
    pending_.erase(it);
    eventq().cancel(p.retryEv);
    if (p.dst) {
        ENZIAN_ASSERT(rsp.data.size() == p.req.len,
                      "read completion without payload");
        std::memcpy(p.dst, rsp.data.data(), rsp.data.size());
    }
    ENZIAN_SPAN(name(), "req", p.issued, when);
    ENZIAN_FLOW_STEP(name(), "req", when, p.req.flowId);
    if (p.callDone)
        p.callDone(when, rsp.ok, std::move(rsp.data));
    else
        p.done(when);
}

} // namespace enzian::net
