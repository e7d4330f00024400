/**
 * @file
 * Home agent implementation.
 */

#include "eci/home_agent.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "base/logging.hh"
#include "eci/protocol_table.hh"
#include "obs/span_tracer.hh"

namespace enzian::eci {

namespace {

/** Bound on the home's reply cache (LRU evicted past this). */
constexpr std::size_t replayCap = 4096;

} // namespace

using cache::MoesiState;

DramLineSource::DramLineSource(mem::MemoryController &mc,
                               const mem::AddressMap &map)
    : mc_(mc), map_(map)
{
}

void
DramLineSource::readLine(Tick when, Addr addr, std::uint8_t *out,
                         Done done)
{
    done(mc_.read(when, map_.offsetInRegion(addr), out,
                  cache::lineSize)
             .done);
}

void
DramLineSource::writeLine(Tick when, Addr addr,
                          const std::uint8_t *data, Done done)
{
    done(mc_.write(when, map_.offsetInRegion(addr), data,
                   cache::lineSize)
             .done);
}

HomeAgent::HomeAgent(std::string name, EventQueue &eq, mem::NodeId node,
                     const mem::AddressMap &map,
                     mem::MemoryController &mc, EciFabric &fabric)
    : SimObject(std::move(name), eq), node_(node),
      peer_(node == mem::NodeId::Cpu ? mem::NodeId::Fpga
                                     : mem::NodeId::Cpu),
      map_(map), mc_(mc), fabric_(fabric), defaultSource_(mc, map),
      source_(&defaultSource_),
      dirLatency_(units::ns(node == mem::NodeId::Cpu ? 25.0 : 40.0))
{
    stats().addCounter("requests_served", &served_);
    stats().addCounter("snoops_sent", &snoops_);
    stats().addCounter("deferrals", &deferrals_);
    stats().addCounter("responses_replayed", &replays_);
    stats().addCounter("duplicate_requests", &dupReqs_);
    stats().addCounter("snoop_retries", &snoopRetries_);
    stats().addCounter("duplicate_snoop_responses", &dupSnoopRsps_);
    stats().addAccumulator("service_ns", &service_);
    stats().addAccumulator("busy_lines", &occupancy_);
}

void
HomeAgent::enableRecovery(double snoop_timeout_us,
                          std::uint32_t max_retries)
{
    recovery_ = true;
    snoopTimeout_ = units::us(snoop_timeout_us);
    maxRetries_ = max_retries;
}

void
HomeAgent::recordService([[maybe_unused]] const char *op, Tick t_req,
                         Tick done_at)
{
    service_.sample(units::toNanos(done_at - t_req));
    ENZIAN_SPAN(name(), op, t_req, done_at);
}

void
HomeAgent::setLineSource(LineSource *src)
{
    source_ = src ? src : &defaultSource_;
}

void
HomeAgent::setIpiHandler(std::function<void(std::uint32_t)> h)
{
    ipiHandler_ = std::move(h);
}

MoesiState
HomeAgent::remoteState(Addr line) const
{
    const MoesiState *s = dir_.find(cache::lineAlign(line));
    return s ? *s : MoesiState::Invalid;
}

void
HomeAgent::sendAt(Tick when, const EciMsg &msg)
{
    if (recovery_)
        recordResponse(msg);
    if (when <= now()) {
        fabric_.send(msg);
    } else {
        eventq().schedule(
            when, [this, copy = msg]() { fabric_.send(copy); },
            "home-send");
    }
}

void
HomeAgent::recordResponse(const EciMsg &msg)
{
    // Only responses are cached for replay; snoops have their own
    // retry timer on our side.
    if (msg.op != Opcode::PEMD && msg.op != Opcode::PACK &&
        msg.op != Opcode::PNAK && msg.op != Opcode::IOBACK)
        return;
    inflightReq_.erase(msg.tid);
    if (replay_.size() >= replayCap && !replayOrder_.empty()) {
        replay_.erase(replayOrder_.front());
        replayOrder_.pop_front();
    }
    if (replay_.emplace(msg.tid, msg).second)
        replayOrder_.push_back(msg.tid);
}

bool
HomeAgent::isDuplicateRequest(const EciMsg &msg)
{
    auto cached = replay_.find(msg.tid);
    if (cached != replay_.end()) {
        // Already answered: the response was lost; replay it.
        replays_.inc();
        sendAt(now() + dirLatency_, cached->second);
        return true;
    }
    if (inflightReq_.contains(msg.tid)) {
        // Still being served (possibly deferred behind a busy line);
        // the eventual response satisfies the retry too.
        dupReqs_.inc();
        return true;
    }
    inflightReq_.insert(msg.tid);
    return false;
}

bool
HomeAgent::acquireLine(Addr line, std::function<void()> retry)
{
    if (!busy_.insert(line).second) {
        deferrals_.inc();
        deferred_[line].push_back(std::move(retry));
        return false;
    }
    occupancy_.sample(static_cast<double>(busy_.size()));
    return true;
}

void
HomeAgent::finishLine(Addr line)
{
    busy_.erase(line);
    auto it = deferred_.find(line);
    if (it == deferred_.end() || it->second.empty()) {
        if (it != deferred_.end())
            deferred_.erase(it);
        return;
    }
    auto next = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty())
        deferred_.erase(it);
    // Re-enter processing on a fresh event so timing accumulates.
    eventq().scheduleDelta(dirLatency_, std::move(next),
                           "home-deferred");
}

void
HomeAgent::handle(const EciMsg &msg)
{
    ENZIAN_ASSERT(msg.dst == node_, "message for node %s at home %s",
                  mem::toString(msg.dst), mem::toString(node_));
    switch (msg.op) {
      case Opcode::RLDD:
      case Opcode::RLDX:
      case Opcode::RLDI:
      case Opcode::RSTT:
      case Opcode::RUPG:
      case Opcode::RUPD:
      case Opcode::RWBD:
      case Opcode::REVC:
        if (recovery_ && isDuplicateRequest(msg))
            return;
        handleRequest(msg);
        return;
      case Opcode::SACKI:
      case Opcode::SACKS:
        handleSnoopResponse(msg);
        return;
      case Opcode::IOBLD:
      case Opcode::IOBST:
        if (recovery_ && isDuplicateRequest(msg))
            return;
        serveIo(msg);
        return;
      case Opcode::IPI:
        if (ipiHandler_)
            ipiHandler_(msg.ioLen);
        return;
      default:
        panic("home agent received unexpected %s",
              msg.toString().c_str());
    }
}

void
HomeAgent::handleRequest(const EciMsg &msg)
{
    // Past the duplicate filter: deferred retries re-enter here, not
    // handle(), so a queued original is never mistaken for its own
    // duplicate.
    if (!acquireLine(cache::lineAlign(msg.addr),
                     [this, copy = msg]() { handleRequest(copy); }))
        return;
    process(msg);
}

void
HomeAgent::process(const EciMsg &msg)
{
    served_.inc();
    switch (msg.op) {
      case Opcode::RLDD:
        serveRead(msg, /*exclusive=*/false, /*allocate=*/true);
        return;
      case Opcode::RLDX:
        serveRead(msg, /*exclusive=*/true, /*allocate=*/true);
        return;
      case Opcode::RLDI:
        serveRead(msg, /*exclusive=*/false, /*allocate=*/false);
        return;
      case Opcode::RSTT:
        serveUncachedWrite(msg);
        return;
      case Opcode::RUPG:
      case Opcode::RUPD:
        serveUpgrade(msg);
        return;
      case Opcode::RWBD:
        serveWriteBack(msg);
        return;
      case Opcode::REVC: {
        const Addr line = cache::lineAlign(msg.addr);
        dir_.erase(line);
        EciMsg rsp;
        rsp.op = Opcode::PACK;
        rsp.src = node_;
        rsp.dst = msg.src;
        rsp.tid = msg.tid;
        rsp.addr = line;
        recordService("REVC", now(), now() + dirLatency_);
        sendAt(now() + dirLatency_, rsp);
        finishLine(line);
        return;
      }
      default:
        panic("process: unexpected %s", msg.toString().c_str());
    }
}

void
HomeAgent::serveRead(const EciMsg &msg, bool exclusive, bool allocate)
{
    const Addr line = cache::lineAlign(msg.addr);
    const Tick t_req = now();
    const char *op_name = eci::toString(msg.op);
    const Tick t0 = now() + dirLatency_;

    auto rsp = std::make_shared<EciMsg>();
    rsp->op = Opcode::PEMD;
    rsp->src = node_;
    rsp->dst = msg.src;
    rsp->tid = msg.tid;
    rsp->addr = line;

    // The grant, directory and local-copy decisions all come from the
    // protocol table (shared with the model checker); the engine applies
    // them before the (possibly asynchronous) data fetch so the
    // protocol state is stable by the time any later request for this
    // line is deferred behind us.
    const cache::LineHandle held = localLine(line);
    const proto::HomeReadStep step = table_->homeRead(
        held.state(), remoteState(line), exclusive, allocate);

    const bool local_had_copy = static_cast<bool>(held);
    bool local_flush = false;
    std::vector<std::uint8_t> flush_data;
    if (local_had_copy) {
        std::memcpy(rsp->line.data(), held.data(), cache::lineSize);
        switch (step.localAction) {
          case proto::LocalAction::Invalidate: {
            auto ev = localCache_->invalidate(held);
            if (ev && step.flushLocalDirty) {
                local_flush = true;
                flush_data.assign(ev->data.begin(), ev->data.end());
            }
            break;
          }
          case proto::LocalAction::DowngradeOwned:
            held.setState(step.localAfter);
            break;
          case proto::LocalAction::DowngradeShared:
            // MESI: the dirty data flushes to the source before the
            // copy is held clean-Shared (the read response already
            // carries it to the requester).
            if (step.flushLocalDirty) {
                local_flush = true;
                flush_data.assign(rsp->line.begin(),
                                  rsp->line.end());
            }
            held.setState(step.localAfter);
            break;
          case proto::LocalAction::Keep:
            break;
        }
    }

    rsp->grant = step.grant;
    if (allocate)
        dir_[line] = step.dirAfter;

    auto complete = [this, rsp, line, t_req, op_name](Tick ready) {
        recordService(op_name, t_req, ready);
        sendAt(ready, *rsp);
        finishLine(line);
    };

    if (local_had_copy) {
        if (local_flush) {
            auto data =
                std::make_shared<std::vector<std::uint8_t>>(
                    std::move(flush_data));
            source_->writeLine(t0, line, data->data(),
                               [complete, data](Tick durable) {
                                   complete(durable);
                               });
        } else {
            complete(t0);
        }
        return;
    }
    source_->readLine(t0, line, rsp->line.data(), complete);
}

void
HomeAgent::serveUncachedWrite(const EciMsg &msg)
{
    const Addr line = cache::lineAlign(msg.addr);
    const Tick t0 = now() + dirLatency_;

    // A full-line store supersedes any local copy.
    if (localCache_)
        localCache_->invalidate(line);

    EciMsg rsp;
    rsp.op = Opcode::PACK;
    rsp.src = node_;
    rsp.dst = msg.src;
    rsp.tid = msg.tid;
    rsp.addr = line;

    const Tick t_req = now();
    if (source_->posted()) {
        // Posted: acknowledged once the home engine accepts the data;
        // DRAM occupancy still advances. This is why Figure 6 shows
        // slightly higher write than read throughput.
        source_->writeLine(t0, line, msg.line.data(), [](Tick) {});
        recordService("RSTT", t_req, t0 + units::ns(20.0));
        sendAt(t0 + units::ns(20.0), rsp);
        finishLine(line);
        return;
    }
    // Non-posted (e.g. bridged remote memory): the ack carries the
    // true durability point, and the line stays busy meanwhile so a
    // subsequent read cannot overtake the write.
    source_->writeLine(t0, line, msg.line.data(),
                       [this, rsp, line, t_req](Tick durable) {
                           recordService("RSTT", t_req, durable);
                           sendAt(durable, rsp);
                           finishLine(line);
                       });
}

void
HomeAgent::serveUpgrade(const EciMsg &msg)
{
    const Addr line = cache::lineAlign(msg.addr);
    const Tick t0 = now() + dirLatency_;

    const cache::LineHandle held = localLine(line);
    const MoesiState local = held.state();
    const proto::HomeUpgradeStep step =
        table_->homeUpgrade(local, remoteState(line));
    ENZIAN_ASSERT(step.legal,
                  "%s for line %llx with remote state %s, home %s",
                  eci::toString(msg.op),
                  static_cast<unsigned long long>(line),
                  cache::toString(remoteState(line)),
                  cache::toString(local));
    if (held) {
        switch (step.localAction) {
          case proto::LocalAction::Invalidate:
            localCache_->invalidate(held);
            break;
          case proto::LocalAction::DowngradeShared:
            // Update protocol: the RUPD payload refreshes the
            // surviving copy (superseding even dirty local data).
            if (step.updateData)
                std::memcpy(held.data(), msg.line.data(),
                            cache::lineSize);
            held.setState(MoesiState::Shared);
            break;
          case proto::LocalAction::DowngradeOwned:
            held.setState(MoesiState::Owned);
            break;
          case proto::LocalAction::Keep:
            break;
        }
    }
    dir_[line] = step.dirAfter;

    EciMsg rsp;
    rsp.op = Opcode::PACK;
    rsp.src = node_;
    rsp.dst = msg.src;
    rsp.tid = msg.tid;
    rsp.addr = line;
    rsp.grant = step.grant;
    recordService(eci::toString(msg.op), now(), t0);
    sendAt(t0, rsp);
    finishLine(line);
}

void
HomeAgent::serveWriteBack(const EciMsg &msg)
{
    const Addr line = cache::lineAlign(msg.addr);
    const Tick t0 = now() + dirLatency_;

    const proto::HomeWritebackStep step =
        table_->homeWriteback(remoteState(line));
    ENZIAN_ASSERT(step.legal,
                  "RWBD for line %llx with remote state %s",
                  static_cast<unsigned long long>(line),
                  cache::toString(remoteState(line)));
    dir_.erase(line);

    EciMsg rsp;
    rsp.op = Opcode::PACK;
    rsp.src = node_;
    rsp.dst = msg.src;
    rsp.tid = msg.tid;
    rsp.addr = line;

    const Tick t_req = now();
    if (!step.commitData) {
        // The writeback lost a race with a home-initiated SINV: the
        // home's own write was serialized after the eviction, so the
        // payload is stale and must not reach memory.
        recordService("RWBD", t_req, t0);
        sendAt(t0, rsp);
        finishLine(line);
        return;
    }
    if (source_->posted()) {
        source_->writeLine(t0, line, msg.line.data(), [](Tick) {});
        recordService("RWBD", t_req, t0 + units::ns(20.0));
        sendAt(t0 + units::ns(20.0), rsp);
        finishLine(line);
        return;
    }
    source_->writeLine(t0, line, msg.line.data(),
                       [this, rsp, line, t_req](Tick durable) {
                           recordService("RWBD", t_req, durable);
                           sendAt(durable, rsp);
                           finishLine(line);
                       });
}

void
HomeAgent::maybeAllocateLocal(Addr line, const std::uint8_t *data)
{
    if (!readAllocate_ || !localCache_ || !data)
        return;
    if (localCache_->probe(line) != MoesiState::Invalid)
        return;
    // Never force an eviction: the home agent has no writeback path
    // for foreign-owned victims, so only a free frame is used.
    if (!localCache_->hasFreeFrame(line, cache::ownerLocal))
        return;
    localCache_->fill(line, MoesiState::Shared, data,
                      cache::ownerLocal);
}

void
HomeAgent::localRead(Addr line, std::uint8_t *out, Done done)
{
    line = cache::lineAlign(line);
    ENZIAN_ASSERT(map_.homeOf(line) == node_,
                  "localRead of non-homed line %llx",
                  static_cast<unsigned long long>(line));
    if (!out) {
        // Caller only wants the timing; route the data to scratch
        // kept alive by the completion continuation.
        auto scratch = std::make_shared<
            std::array<std::uint8_t, cache::lineSize>>();
        localRead(line, scratch->data(),
                  [scratch, done = std::move(done)](Tick t) {
                      done(t);
                  });
        return;
    }
    if (!acquireLine(line, [this, line, out,
                            done]() mutable {
            localRead(line, out, std::move(done));
        }))
        return;
    const cache::LineHandle held = localLine(line);
    if (table_->homeLocalReadSnoop(held.state(), remoteState(line)) ==
        proto::SnoopKind::Forward) {
        // Remote holds the freshest copy: snoop-forward it. The
        // pending snoop keeps the raw completion; the snoop-response
        // handler frees the line (or retries on a snoop miss).
        EciMsg snp;
        snp.op = Opcode::SFWD;
        snp.src = node_;
        snp.dst = peer_;
        snp.tid = nextSnoopTid_++;
        snp.addr = line;
        pendingSnoops_[snp.tid] =
            PendingSnoop{line, false, std::move(done), out, {}, snp};
        snoops_.inc();
        sendAt(now() + dirLatency_, snp);
        if (recovery_)
            armSnoopRetry(snp.tid);
        return;
    }
    // Wrap the completion so the line frees when the access retires.
    done = [this, line, done = std::move(done)](Tick t) {
        done(t);
        finishLine(line);
    };
    // Local cache copy (if any) is valid; otherwise the source.
    if (held) {
        std::memcpy(out, held.data(), cache::lineSize);
        const Tick ready = now() + dirLatency_;
        eventq().schedule(
            ready, [done = std::move(done), ready]() { done(ready); },
            "local-read-hit");
        return;
    }
    source_->readLine(now() + dirLatency_, line, out,
                      [this, line, out,
                       done = std::move(done)](Tick ready) {
                          maybeAllocateLocal(line, out);
                          if (ready <= now()) {
                              done(ready);
                          } else {
                              eventq().schedule(
                                  ready,
                                  [done, ready]() { done(ready); },
                                  "local-read");
                          }
                      });
}

void
HomeAgent::localWrite(Addr line, const std::uint8_t *data, Done done)
{
    line = cache::lineAlign(line);
    ENZIAN_ASSERT(map_.homeOf(line) == node_,
                  "localWrite of non-homed line %llx",
                  static_cast<unsigned long long>(line));
    if (!acquireLine(line, [this, line,
                            data_copy = std::vector<std::uint8_t>(
                                data, data + cache::lineSize),
                            done]() mutable {
            localWrite(line, data_copy.data(), std::move(done));
        }))
        return;
    const MoesiState rs = remoteState(line);
    if (table_->homeLocalWriteSnoop(rs) ==
        proto::SnoopKind::Invalidate) {
        EciMsg snp;
        snp.op = Opcode::SINV;
        snp.src = node_;
        snp.dst = peer_;
        snp.tid = nextSnoopTid_++;
        snp.addr = line;
        PendingSnoop p;
        p.line = line;
        p.invalidate = true;
        p.done = std::move(done);
        p.out = nullptr;
        p.wdata.assign(data, data + cache::lineSize);
        p.msg = snp;
        pendingSnoops_[snp.tid] = std::move(p);
        snoops_.inc();
        sendAt(now() + dirLatency_, snp);
        if (recovery_)
            armSnoopRetry(snp.tid);
        return;
    }
    // Wrap the completion so the line frees when the access retires.
    done = [this, line, done = std::move(done)](Tick t) {
        done(t);
        finishLine(line);
    };
    if (localCache_)
        localCache_->invalidate(line);
    source_->writeLine(now() + dirLatency_, line, data,
                       [this, done = std::move(done)](Tick durable) {
                           if (durable <= now()) {
                               done(durable);
                           } else {
                               eventq().schedule(
                                   durable,
                                   [done, durable]() {
                                       done(durable);
                                   },
                                   "local-write");
                           }
                       });
}

void
HomeAgent::armSnoopRetry(std::uint32_t tid)
{
    auto it = pendingSnoops_.find(tid);
    if (it == pendingSnoops_.end())
        return;
    PendingSnoop &p = it->second;
    const Tick delay = snoopTimeout_
                       << std::min<std::uint32_t>(p.attempts, 5);
    p.retryEv = eventq().scheduleDelta(
        delay,
        [this, tid]() {
            auto pit = pendingSnoops_.find(tid);
            if (pit == pendingSnoops_.end())
                return; // answered while the event was in flight
            PendingSnoop &ps = pit->second;
            ++ps.attempts;
            ENZIAN_ASSERT(ps.attempts <= maxRetries_,
                          "snoop tid %u unanswered after %u retries "
                          "(livelock?)",
                          tid, ps.attempts);
            snoopRetries_.inc();
            fabric_.send(ps.msg);
            armSnoopRetry(tid);
        },
        "home-snoop-retry");
}

void
HomeAgent::handleSnoopResponse(const EciMsg &msg)
{
    auto it = pendingSnoops_.find(msg.tid);
    if (it == pendingSnoops_.end() && recovery_) {
        // A retried snoop crossed its original's response; the first
        // answer already completed the transaction.
        dupSnoopRsps_.inc();
        return;
    }
    ENZIAN_ASSERT(it != pendingSnoops_.end(),
                  "snoop response with unknown tid %u", msg.tid);
    eventq().cancel(it->second.retryEv);
    PendingSnoop p = std::move(it->second);
    pendingSnoops_.erase(it);

    // The pending snoop holds the raw completion; deliver it and then
    // free the line so deferred traffic can proceed.
    auto finish = [this, line = p.line](Done done, Tick when) {
        auto fin = [this, line, done = std::move(done)](Tick t) {
            done(t);
            finishLine(line);
        };
        if (when <= now()) {
            fin(when);
        } else {
            eventq().schedule(
                when, [fin, when]() { fin(when); }, "snoop-done");
        }
    };

    if (msg.op == Opcode::SACKS) {
        // Remote downgraded M/E -> S and forwarded the data; the data
        // becomes clean at home.
        dir_[p.line] = table_->homeSnoopResponse(msg.op);
        if (p.out)
            std::memcpy(p.out, msg.line.data(), cache::lineSize);
        maybeAllocateLocal(p.line, msg.line.data());
        auto data = std::make_shared<std::array<
            std::uint8_t, cache::lineSize>>(msg.line);
        source_->writeLine(
            now(), p.line, data->data(),
            [finish, done = std::move(p.done), data](Tick durable) {
                finish(done, durable);
            });
        return;
    }

    // SACKI answering a local write: the remote invalidated; dirty
    // data (if any) rides along but the pending write supersedes it.
    if (p.invalidate) {
        dir_.erase(p.line);
        if (localCache_)
            localCache_->invalidate(p.line);
        auto data = std::make_shared<std::vector<std::uint8_t>>(
            std::move(p.wdata));
        source_->writeLine(
            now(), p.line, data->data(),
            [finish, done = std::move(p.done), data](Tick durable) {
                finish(done, durable);
            });
        return;
    }
    // SACKI answering a read snoop. With data: the remote invalidated
    // a dirty copy and forwarded it (reordering-tolerant path).
    if (msg.hasData) {
        dir_.erase(p.line);
        if (p.out)
            std::memcpy(p.out, msg.line.data(), cache::lineSize);
        maybeAllocateLocal(p.line, msg.line.data());
        auto data = std::make_shared<std::array<
            std::uint8_t, cache::lineSize>>(msg.line);
        source_->writeLine(
            now(), p.line, data->data(),
            [finish, done = std::move(p.done), data](Tick durable) {
                finish(done, durable);
            });
        return;
    }
    // Snoop miss: the SFWD found nothing because the remote evicted
    // concurrently and its RWBD/REVC is in flight toward us. Leave
    // the directory alone (the eviction will clear it), queue a retry
    // of the local read behind any already-deferred traffic, and free
    // the line so the eviction can drain first.
    deferred_[p.line].push_back([this, line = p.line, out = p.out,
                                 done = std::move(p.done)]() mutable {
        localRead(line, out, std::move(done));
    });
    finishLine(p.line);
}

void
HomeAgent::serveIo(const EciMsg &msg)
{
    ENZIAN_ASSERT(msg.ioLen >= 1 && msg.ioLen <= 8,
                  "I/O access of %u bytes", msg.ioLen);
    const Tick t0 = now() + dirLatency_;
    EciMsg rsp;
    rsp.op = Opcode::IOBACK;
    rsp.src = node_;
    rsp.dst = msg.src;
    rsp.tid = msg.tid;
    rsp.addr = msg.addr;
    rsp.ioLen = msg.ioLen;
    if (msg.op == Opcode::IOBLD) {
        rsp.ioData =
            ioSpace_ ? ioSpace_->read(msg.addr, msg.ioLen) : 0;
    } else {
        if (ioSpace_)
            ioSpace_->write(msg.addr, msg.ioData, msg.ioLen);
        rsp.ioData = 0;
    }
    sendAt(t0, rsp);
}

} // namespace enzian::eci
