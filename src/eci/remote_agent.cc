/**
 * @file
 * Remote agent implementation.
 */

#include "eci/remote_agent.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "eci/home_agent.hh"
#include "eci/protocol_table.hh"
#include "obs/span_tracer.hh"

namespace enzian::eci {

using cache::MoesiState;

RemoteAgent::RemoteAgent(std::string name, EventQueue &eq,
                         mem::NodeId node, const mem::AddressMap &map,
                         EciFabric &fabric, const Config &cfg)
    : SimObject(std::move(name), eq), node_(node),
      peer_(node == mem::NodeId::Cpu ? mem::NodeId::Fpga
                                     : mem::NodeId::Cpu),
      map_(map), fabric_(fabric), cfg_(cfg)
{
    if (cfg_.max_outstanding == 0)
        fatal("remote agent '%s': zero MSHRs", SimObject::name().c_str());
    stats().addCounter("local_hits", &hits_);
    stats().addCounter("requests", &reqs_);
    stats().addCounter("pnaks", &pnaks_);
    stats().addCounter("retries", &retries_);
    stats().addCounter("duplicate_responses", &dupRsps_);
    stats().addAccumulator("rtt_ns", &rtt_);
    stats().addAccumulator("outstanding", &outstanding_);
}

void
RemoteAgent::enableRecovery(double timeout_us,
                            std::uint32_t max_retries)
{
    retryTimeout_ = units::us(timeout_us);
    maxRetries_ = max_retries;
}

void
RemoteAgent::armRetry(std::uint32_t tid)
{
    Txn *txn = txns_.find(tid);
    if (!txn)
        return;
    Txn &t = *txn;
    const Tick delay =
        retryTimeout_ << std::min<std::uint32_t>(t.attempts, 5);
    t.retryEv = eventq().scheduleDelta(
        delay, [this, tid]() { onRetryTimeout(tid); }, "eci-req-retry");
}

void
RemoteAgent::onRetryTimeout(std::uint32_t tid)
{
    Txn *txn = txns_.find(tid);
    if (!txn)
        return; // completed while the timeout event was in flight
    Txn &t = *txn;
    ++t.attempts;
    ENZIAN_ASSERT(t.attempts <= maxRetries_,
                  "request tid %u unanswered after %u retries "
                  "(livelock?)",
                  tid, t.attempts);
    retries_.inc();
    // Same tid on purpose: the home deduplicates in-flight requests
    // and replays cached responses, so a duplicate is harmless while
    // a fresh tid would double-apply the operation.
    fabric_.send(*t.resend);
    armRetry(tid);
}

RemoteAgent::RemoteAgent(std::string name, EventQueue &eq,
                         mem::NodeId node, const mem::AddressMap &map,
                         EciFabric &fabric)
    : RemoteAgent(std::move(name), eq, node, map, fabric, Config())
{
}

std::uint32_t
RemoteAgent::newTid()
{
    return nextTid_++;
}

void
RemoteAgent::releaseLine(Addr line)
{
    busyLines_.erase(line);
    auto it = lineWaiters_.find(line);
    if (it == lineWaiters_.end())
        return;
    std::deque<std::function<void()>> waiters = std::move(it->second);
    lineWaiters_.erase(it);
    // Re-execute parked operations; each re-probes the cache and may
    // now hit locally or start its own transaction (re-parking any
    // operations beyond the first state-changing one).
    for (auto &w : waiters)
        w();
}

void
RemoteAgent::parkOnLine(Addr line, std::function<void()> retry)
{
    lineWaiters_[line].push_back(std::move(retry));
}

template <typename Op>
void
RemoteAgent::submit(Op &&op)
{
    if (txns_.size() < cfg_.max_outstanding)
        op();
    else
        waiting_.emplace_back(std::forward<Op>(op));
}

void
RemoteAgent::releaseSlot()
{
    if (waiting_.empty() || txns_.size() >= cfg_.max_outstanding)
        return;
    auto op = std::move(waiting_.front());
    waiting_.pop_front();
    op();
}

void
RemoteAgent::sendRequest(Opcode op, Addr line, Txn txn,
                         const std::uint8_t *payload)
{
    const std::uint32_t tid = newTid();
    EciMsg msg;
    msg.op = op;
    msg.src = node_;
    msg.dst = peer_;
    msg.tid = tid;
    msg.addr = line;
    if (payload)
        std::memcpy(msg.line.data(), payload, cache::lineSize);
    txn.start = now();
    txn.op = op;
    // Occupancy including this request.
    outstanding_.sample(static_cast<double>(txns_.size() + 1));
    issue(msg, std::move(txn));
}

void
RemoteAgent::issue(const EciMsg &msg, Txn txn)
{
    txns_.insert(msg.tid, std::move(txn));
    reqs_.inc();
    fabric_.send(msg);
    if (retryTimeout_) {
        // Looked up again: the send may have touched the table.
        txns_.find(msg.tid)->resend = std::make_unique<EciMsg>(msg);
        armRetry(msg.tid);
    }
}

std::optional<RemoteAgent::Txn>
RemoteAgent::takeTxn(const EciMsg &rsp)
{
    Txn *txn = txns_.find(rsp.tid);
    if (!txn && retryTimeout_) {
        // Our retry raced the original's response; the first copy
        // already completed this transaction.
        dupRsps_.inc();
        return std::nullopt;
    }
    ENZIAN_ASSERT(txn, "%s with unknown tid %u", eci::toString(rsp.op),
                  rsp.tid);
    eventq().cancel(txn->retryEv);
    std::optional<Txn> out(std::move(*txn));
    txns_.erase(rsp.tid);
    return out;
}

void
RemoteAgent::recordCompletion(const Txn &txn)
{
    rtt_.sample(units::toNanos(now() - txn.start));
    ENZIAN_SPAN(name(), eci::toString(txn.op), txn.start, now());
}

void
RemoteAgent::readLine(Addr line, std::uint8_t *out, Done done)
{
    line = cache::lineAlign(line);
    ENZIAN_ASSERT(map_.homeOf(line) == peer_,
                  "readLine of locally-homed line %llx",
                  static_cast<unsigned long long>(line));
    if (cache_) {
        if (const cache::LineHandle held = cache_->access(line)) {
            hits_.inc();
            if (out)
                std::memcpy(out, held.data(), cache::lineSize);
            const Tick ready = now() + units::ns(cfg_.hit_latency_ns);
            eventq().schedule(
                ready, [done = std::move(done), ready]() { done(ready); },
                "l2-hit");
            return;
        }
        if (!markLineBusy(line)) {
            parkOnLine(line, [this, line, out,
                              done = std::move(done)]() mutable {
                readLine(line, out, std::move(done));
            });
            return;
        }
    }
    submit([this, line, out, done = std::move(done)]() mutable {
        Txn t;
        t.kind = Kind::CachedRead;
        t.line = line;
        t.out = out;
        t.done = std::move(done);
        sendRequest(cache_ ? Opcode::RLDD : Opcode::RLDI, line,
                    std::move(t));
    });
}

void
RemoteAgent::writeLine(Addr line, const std::uint8_t *data, Done done)
{
    line = cache::lineAlign(line);
    ENZIAN_ASSERT(map_.homeOf(line) == peer_,
                  "writeLine of locally-homed line %llx",
                  static_cast<unsigned long long>(line));
    if (!cache_) {
        writeLineUncached(line, data, std::move(done));
        return;
    }
    if (lineBusy(line)) {
        std::vector<std::uint8_t> payload(data,
                                          data + cache::lineSize);
        parkOnLine(line, [this, line, payload = std::move(payload),
                          done = std::move(done)]() mutable {
            writeLine(line, payload.data(), std::move(done));
        });
        return;
    }
    const cache::LineHandle held = cache_->lookup(line);
    const proto::RemoteWriteStep step = table_->remoteWrite(held.state());
    if (step.hit) {
        held.touch();
        std::memcpy(held.data(), data, cache::lineSize);
        held.setState(step.stateAfter);
        hits_.inc();
        const Tick ready = now() + units::ns(cfg_.hit_latency_ns);
        eventq().schedule(
            ready, [done = std::move(done), ready]() { done(ready); },
            "l2-write-hit");
        return;
    }
    std::vector<std::uint8_t> payload(data, data + cache::lineSize);
    markLineBusy(line);
    submit([this, line, op = step.request,
            payload = std::move(payload),
            done = std::move(done)]() mutable {
        Txn t;
        t.kind = (op == Opcode::RUPG || op == Opcode::RUPD)
                     ? Kind::Upgrade
                     : Kind::CachedWriteMiss;
        t.line = line;
        t.data = std::move(payload);
        t.done = std::move(done);
        // An update (RUPD) ships the full new line so the home can
        // refresh surviving copies; RUPG/RLDX carry no payload.
        const std::uint8_t *wire =
            op == Opcode::RUPD ? t.data.data() : nullptr;
        sendRequest(op, line, std::move(t), wire);
    });
}

void
RemoteAgent::readLineUncached(Addr line, std::uint8_t *out, Done done)
{
    line = cache::lineAlign(line);
    submit([this, line, out, done = std::move(done)]() mutable {
        Txn t;
        t.kind = Kind::UncachedRead;
        t.line = line;
        t.out = out;
        t.done = std::move(done);
        sendRequest(Opcode::RLDI, line, std::move(t));
    });
}

void
RemoteAgent::writeLineUncached(Addr line, const std::uint8_t *data,
                               Done done)
{
    line = cache::lineAlign(line);
    std::vector<std::uint8_t> payload(data, data + cache::lineSize);
    submit([this, line, payload = std::move(payload),
            done = std::move(done)]() mutable {
        Txn t;
        t.kind = Kind::UncachedWrite;
        t.line = line;
        t.done = std::move(done);
        sendRequest(Opcode::RSTT, line, std::move(t), payload.data());
    });
}

void
RemoteAgent::ioRead(Addr offset, std::uint32_t len, IoDone done)
{
    ENZIAN_ASSERT(len >= 1 && len <= 8, "I/O read of %u bytes", len);
    submit([this, offset, len, done = std::move(done)]() mutable {
        Txn t;
        t.kind = Kind::Io;
        t.iodone = std::move(done);
        t.start = now();
        t.op = Opcode::IOBLD;
        EciMsg msg;
        msg.op = Opcode::IOBLD;
        msg.src = node_;
        msg.dst = peer_;
        msg.tid = newTid();
        msg.addr = offset;
        msg.ioLen = len;
        issue(msg, std::move(t));
    });
}

void
RemoteAgent::ioWrite(Addr offset, std::uint64_t data, std::uint32_t len,
                     Done done)
{
    ENZIAN_ASSERT(len >= 1 && len <= 8, "I/O write of %u bytes", len);
    submit([this, offset, data, len, done = std::move(done)]() mutable {
        Txn t;
        t.kind = Kind::Io;
        t.iodone = [done = std::move(done)](Tick tick, std::uint64_t) {
            done(tick);
        };
        t.start = now();
        t.op = Opcode::IOBST;
        EciMsg msg;
        msg.op = Opcode::IOBST;
        msg.src = node_;
        msg.dst = peer_;
        msg.tid = newTid();
        msg.addr = offset;
        msg.ioLen = len;
        msg.ioData = data;
        issue(msg, std::move(t));
    });
}

void
RemoteAgent::sendIpi(std::uint32_t vector)
{
    EciMsg msg;
    msg.op = Opcode::IPI;
    msg.src = node_;
    msg.dst = peer_;
    msg.tid = newTid();
    msg.ioLen = vector;
    fabric_.send(msg);
}

void
RemoteAgent::handleEviction(const cache::Eviction &ev)
{
    if (map_.homeOf(ev.addr) != peer_)
        return; // locally-homed victims are the home agent's business
    if (table_->remoteEvict(ev.state) == Opcode::RWBD) {
        markLineBusy(ev.addr);
        Txn t;
        t.kind = Kind::WriteBack;
        t.line = ev.addr;
        sendRequest(Opcode::RWBD, ev.addr, std::move(t),
                    ev.data.data());
    } else {
        // Clean evictions are tracked too: the PACK pins the line
        // busy so a subsequent refill cannot overtake the eviction
        // notice on a reordering link policy.
        markLineBusy(ev.addr);
        Txn t;
        t.kind = Kind::Evict;
        t.line = ev.addr;
        sendRequest(Opcode::REVC, ev.addr, std::move(t));
    }
}

void
RemoteAgent::flushAll(Done done)
{
    if (!cache_) {
        const Tick t = now();
        eventq().schedule(t, [done, t]() { done(t); }, "flush-empty");
        return;
    }
    std::vector<Addr> victims;
    cache_->forEachLine([&](Addr line, MoesiState) {
        if (map_.homeOf(line) == peer_)
            victims.push_back(line);
    });
    auto remaining = std::make_shared<std::size_t>(0);
    for (const Addr line : victims) {
        const std::optional<cache::Eviction> dirty =
            cache_->invalidate(line);
        markLineBusy(line);
        if (dirty) {
            ++*remaining;
            submit([this, line, data = dirty->data, remaining,
                    done]() mutable {
                Txn t;
                t.kind = Kind::WriteBack;
                t.line = line;
                t.done = [remaining, done](Tick tick) {
                    if (--*remaining == 0)
                        done(tick);
                };
                sendRequest(Opcode::RWBD, line, std::move(t),
                            data.data());
            });
        } else {
            Txn t;
            t.kind = Kind::Evict;
            t.line = line;
            sendRequest(Opcode::REVC, line, std::move(t));
        }
    }
    if (*remaining == 0) {
        const Tick t = now();
        eventq().schedule(t, [done, t]() { done(t); }, "flush-clean");
    }
}

void
RemoteAgent::completeFill(const EciMsg &msg)
{
    std::optional<Txn> taken = takeTxn(msg);
    if (!taken)
        return;
    Txn &txn = *taken;
    recordCompletion(txn);

    switch (txn.kind) {
      case Kind::CachedRead: {
        if (cache_) {
            const MoesiState st = table_->remoteFillState(msg.grant);
            auto ev = cache_->fill(txn.line, st, msg.line.data(),
                                   cache::ownerRemote);
            if (txn.invalAfterFill)
                cache_->invalidate(txn.line);
            if (ev)
                handleEviction(*ev);
        }
        if (txn.out)
            std::memcpy(txn.out, msg.line.data(), cache::lineSize);
        break;
      }
      case Kind::CachedWriteMiss: {
        ENZIAN_ASSERT(cache_, "write-miss fill without cache");
        auto ev = cache_->fill(txn.line, MoesiState::Modified,
                               txn.data.data(), cache::ownerRemote);
        if (txn.invalAfterFill) {
            // The snoop ordered ahead of our write; push the data home.
            auto dirty = cache_->invalidate(txn.line);
            if (dirty)
                handleEviction(*dirty);
        }
        if (ev)
            handleEviction(*ev);
        break;
      }
      case Kind::UncachedRead:
        if (txn.out)
            std::memcpy(txn.out, msg.line.data(), cache::lineSize);
        break;
      default:
        panic("PEMD for transaction kind %d",
              static_cast<int>(txn.kind));
    }
    if (txn.done)
        txn.done(now());
    releaseSlot();
    if (txn.kind == Kind::CachedRead || txn.kind == Kind::CachedWriteMiss)
        releaseLine(txn.line);
}

void
RemoteAgent::handleSnoop(const EciMsg &msg)
{
    const Addr line = cache::lineAlign(msg.addr);
    EciMsg rsp;
    rsp.src = node_;
    rsp.dst = peer_;
    rsp.tid = msg.tid;
    rsp.addr = line;

    const cache::LineHandle held =
        cache_ ? cache_->lookup(line) : cache::LineHandle{};
    const proto::RemoteSnoopStep step =
        table_->remoteSnoop(held.state(), msg.op);

    if (step.response == Opcode::SACKS) {
        ENZIAN_ASSERT(cache_, "SFWD hit at cacheless node");
        rsp.op = step.response;
        std::memcpy(rsp.line.data(), held.data(), cache::lineSize);
        held.setState(step.stateAfter);
        rsp.hasData = step.hasData;
        fabric_.send(rsp);
        return;
    }

    // SINV, or an SFWD that missed because our eviction is in flight.
    rsp.op = step.response;
    rsp.hasData = false;
    if (cache_) {
        auto dirty = cache_->invalidate(held);
        if (dirty) {
            std::memcpy(rsp.line.data(), dirty->data.data(),
                        cache::lineSize);
            rsp.hasData = step.hasData;
        }
    }
    // If a fill for this line is in flight, remember to drop it on
    // arrival (the home ordered the invalidation after our grant).
    txns_.forEach([line](std::uint32_t, Txn &txn) {
        if ((txn.kind == Kind::CachedRead ||
             txn.kind == Kind::CachedWriteMiss) &&
            txn.line == line) {
            txn.invalAfterFill = true;
        }
    });
    fabric_.send(rsp);
}

void
RemoteAgent::handle(const EciMsg &msg)
{
    switch (msg.op) {
      case Opcode::PEMD:
        completeFill(msg);
        return;
      case Opcode::PACK: {
        std::optional<Txn> taken = takeTxn(msg);
        if (!taken)
            return;
        Txn &txn = *taken;
        recordCompletion(txn);
        if (txn.kind == Kind::Upgrade) {
            ENZIAN_ASSERT(cache_, "upgrade without cache");
            // Grant::Owned (update protocols) keeps the writer in
            // Owned — other copies survived; anything else makes it
            // the sole Modified owner.
            const MoesiState after =
                table_->remoteUpgradeResult(msg.grant);
            const cache::LineHandle held = cache_->lookup(txn.line);
            if (!held) {
                // A racing SINV consumed our Shared copy before the
                // upgrade was granted; the write carries the full
                // line, so install it fresh.
                auto ev = cache_->fill(txn.line, after,
                                       txn.data.data(),
                                       cache::ownerRemote);
                if (ev)
                    handleEviction(*ev);
            } else {
                held.touch();
                std::memcpy(held.data(), txn.data.data(),
                            cache::lineSize);
                held.setState(after);
            }
        }
        if (txn.done)
            txn.done(now());
        releaseSlot();
        if (txn.kind == Kind::Upgrade ||
            txn.kind == Kind::WriteBack || txn.kind == Kind::Evict)
            releaseLine(txn.line);
        return;
      }
      case Opcode::PNAK: {
        // Retry after a small backoff.
        std::optional<Txn> taken = takeTxn(msg);
        if (!taken)
            return;
        Txn &txn = *taken;
        pnaks_.inc();
        logWarn("PNAK for line %llx, retrying",
                static_cast<unsigned long long>(txn.line));
        // Simplified retry: reissue as an uncached read.
        readLineUncached(txn.line, txn.out, std::move(txn.done));
        releaseSlot();
        return;
      }
      case Opcode::SINV:
      case Opcode::SFWD:
        handleSnoop(msg);
        return;
      case Opcode::IOBACK: {
        std::optional<Txn> taken = takeTxn(msg);
        if (!taken)
            return;
        Txn &txn = *taken;
        recordCompletion(txn);
        if (txn.iodone)
            txn.iodone(now(), msg.ioData);
        releaseSlot();
        return;
      }
      default:
        panic("remote agent received unexpected %s",
              msg.toString().c_str());
    }
}

void
dispatch(HomeAgent &home, RemoteAgent &remote, const EciMsg &msg)
{
    switch (msg.op) {
      case Opcode::RLDD:
      case Opcode::RLDX:
      case Opcode::RLDI:
      case Opcode::RSTT:
      case Opcode::RUPG:
      case Opcode::RUPD:
      case Opcode::RWBD:
      case Opcode::REVC:
      case Opcode::SACKI:
      case Opcode::SACKS:
      case Opcode::IOBLD:
      case Opcode::IOBST:
      case Opcode::IPI:
        home.handle(msg);
        return;
      case Opcode::PEMD:
      case Opcode::PACK:
      case Opcode::PNAK:
      case Opcode::SINV:
      case Opcode::SFWD:
      case Opcode::IOBACK:
        remote.handle(msg);
        return;
    }
    panic("dispatch: bad opcode");
}

} // namespace enzian::eci
