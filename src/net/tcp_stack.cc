/**
 * @file
 * TCP stack model implementation.
 */

#include "net/tcp_stack.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/request_context.hh"
#include "obs/span_tracer.hh"

namespace enzian::net {

TcpStack::TcpStack(std::string name, EventQueue &eq, Switch &sw,
                   const Config &cfg)
    : SimObject(std::move(name), eq), sw_(sw), cfg_(cfg),
      nextFlow_((cfg.port << 16) | 1)
{
    if (cfg_.mss == 0)
        fatal("TCP stack '%s': zero MSS", SimObject::name().c_str());
    sw_.setEndpoint(cfg_.port, [this](Tick, Frame &&frame) {
        onFrame(std::move(frame));
    });
    appRx_.init(
        eq,
        [this](Tick, AppRx &&rx) { receiveCb_(rx.flow, rx.bytes); },
        "tcp-app-deliver");
    stats().addCounter("segments_tx", &segsTx_);
    stats().addCounter("segments_rx", &segsRx_);
    stats().addCounter("bytes_tx", &bytesTx_);
    stats().addCounter("bytes_rx", &bytesRx_);
    stats().addCounter("retransmits", &retransmits_);
    stats().addCounter("rto_firings", &rtos_);
    stats().addCounter("duplicate_acks", &dupAcks_);
    stats().addCounter("duplicate_segments", &dupSegs_);
    stats().addCounter("out_of_order_segments", &oooSegs_);
    stats().addCounter("fault_segments_dropped", &segsDropped_);
    stats().addCounter("fault_segments_reordered", &segsReordered_);
    stats().addAccumulator("send_latency_ns", &sendLatency_);
}

void
TcpStack::enableRecovery(double rto_us)
{
    ENZIAN_ASSERT(flows_.empty(),
                  "enableRecovery after flows were opened");
    rto_ = units::us(rto_us);
    ENZIAN_ASSERT(rto_ > 0, "zero retransmission timeout");
}

void
TcpStack::setLossFaults(Rng *rng, double drop_prob,
                        double reorder_prob, double reorder_delay_us)
{
    ENZIAN_ASSERT(rto_ > 0 || !rng || drop_prob == 0.0,
                  "loss faults without recovery would hang");
    faultRng_ = rng;
    dropProb_ = drop_prob;
    reorderProb_ = reorder_prob;
    reorderDelay_ = units::us(reorder_delay_us);
}

std::uint32_t
TcpStack::connect(TcpStack &remote)
{
    const std::uint32_t id = nextFlow_++;
    Flow &mine = flows_.try_emplace(id).first->second;
    mine.remotePort = remote.cfg_.port;
    mine.pumpEv.init(eventq(), [this, id]() { pump(id); },
                     "tcp-pump");
    Flow &theirs = remote.flows_.try_emplace(id).first->second;
    theirs.remotePort = cfg_.port;
    theirs.pumpEv.init(remote.eventq(),
                       [rs = &remote, id]() { rs->pump(id); },
                       "tcp-pump");
    if (rto_ > 0)
        mine.rtoEv.init(eventq(), [this, id]() { onRto(id); },
                        "tcp-rto");
    if (remote.rto_ > 0)
        theirs.rtoEv.init(remote.eventq(),
                          [rs = &remote, id]() { rs->onRto(id); },
                          "tcp-rto");
    return id;
}

Tick
TcpStack::txCost(std::uint64_t payload) const
{
    return units::ns(cfg_.tx_fixed_ns +
                     cfg_.tx_per_byte_ns *
                         static_cast<double>(payload));
}

Tick
TcpStack::rxCost(std::uint64_t payload) const
{
    return units::ns(cfg_.rx_fixed_ns +
                     cfg_.rx_per_byte_ns *
                         static_cast<double>(payload));
}

void
TcpStack::send(std::uint32_t flow_id, std::uint64_t bytes, Done done)
{
    auto it = flows_.find(flow_id);
    ENZIAN_ASSERT(it != flows_.end(), "send on unknown flow %u",
                  flow_id);
    if (bytes == 0) {
        const Tick t = now();
        eventq().schedule(t, [done = std::move(done), t]() { done(t); },
                          "tcp-empty-send");
        return;
    }
    it->second.jobs.push_back(SendJob{bytes, 0, std::move(done), now(),
                                      obs::currentFlowId()});
    pump(flow_id);
}

void
TcpStack::schedulePump(std::uint32_t flow_id, Tick when)
{
    Flow &f = flows_.at(flow_id);
    if (f.pumpEv.scheduled())
        return;
    f.pumpEv.schedule(std::max(when, now()));
}

void
TcpStack::pump(std::uint32_t flow_id)
{
    Flow &f = flows_.at(flow_id);
    while (!f.jobs.empty()) {
        SendJob &job = f.jobs.front();
        if (job.remaining == 0)
            break; // waiting for acks only
        if (f.txNext - f.ackedTo >= cfg_.window_bytes)
            return; // ack-clocked; pump resumes in onAck

        Tick &free_ref = cfg_.shared_pipeline ? pipeFreeAt_ : f.txFreeAt;
        if (free_ref > now()) {
            schedulePump(flow_id, free_ref);
            return;
        }

        const std::uint64_t seg =
            std::min<std::uint64_t>(cfg_.mss, job.remaining);
        free_ref = now() + txCost(seg);
        job.remaining -= seg;
        job.unacked += seg;
        segsTx_.inc();
        bytesTx_.inc(seg);
        const std::uint64_t seq = f.txNext;
        f.txNext += seg;
        xmitData(flow_id, f, seq, seg);
        if (rto_ > 0) {
            f.sendQ.emplace_back(seq, seg);
            armRto(flow_id);
        }
    }
}

void
TcpStack::sendSeg(std::uint32_t dst, std::uint64_t bytes, TcpSeg seg)
{
    static_assert(Payload::storedInline<TcpSeg>(),
                  "a TCP segment must cross the wire without allocating");
    sw_.sendFrom(cfg_.port, makeFrame(bytes, dst, seg));
}

void
TcpStack::xmitData(std::uint32_t flow_id, Flow &f, std::uint64_t seq,
                   std::uint64_t len)
{
    if (faultRng_ && dropProb_ > 0.0 && faultRng_->chance(dropProb_)) {
        segsDropped_.inc();
        return;
    }
    const TcpSeg seg{kindData, flow_id, seq, len};
    const std::uint32_t dst = f.remotePort;
    if (faultRng_ && reorderProb_ > 0.0 &&
        faultRng_->chance(reorderProb_)) {
        segsReordered_.inc();
        eventq().scheduleDelta(
            reorderDelay_,
            [this, dst, seg]() {
                sendSeg(dst, seg.len + tcpHeaderBytes, seg);
            },
            "tcp-reorder");
        return;
    }
    sendSeg(dst, len + tcpHeaderBytes, seg);
}

void
TcpStack::sendCumAck(std::uint32_t flow_id, Flow &f)
{
    // Cumulative acks are drop-able too: the next one repairs it.
    if (faultRng_ && dropProb_ > 0.0 && faultRng_->chance(dropProb_)) {
        segsDropped_.inc();
        return;
    }
    sendSeg(f.remotePort, tcpHeaderBytes,
            TcpSeg{kindAck, flow_id, f.rxExpected, 0});
}

void
TcpStack::armRto(std::uint32_t flow_id)
{
    Flow &f = flows_.at(flow_id);
    if (f.sendQ.empty()) {
        f.rtoEv.cancel();
        return;
    }
    if (f.rtoEv.scheduled())
        return;
    f.rtoEv.scheduleDelta(rto_
                          << std::min<std::uint32_t>(f.rtoBackoff, 6));
}

void
TcpStack::onRto(std::uint32_t flow_id)
{
    Flow &f = flows_.at(flow_id);
    if (f.sendQ.empty())
        return;
    ++f.rtoBackoff;
    ENZIAN_ASSERT(f.rtoBackoff < 64,
                  "flow %u: retransmission not making progress",
                  flow_id);
    rtos_.inc();
    retransmits_.inc();
    // Go-back-N on the oldest unacked segment; the cumulative ack it
    // provokes re-opens the window for everything after it.
    const auto [seq, len] = f.sendQ.front();
    xmitData(flow_id, f, seq, len);
    armRto(flow_id);
}

void
TcpStack::onFrame(Frame &&frame)
{
    const TcpSeg &seg = frame.body.get<TcpSeg>();
    switch (seg.kind) {
      case kindData:
        onData(seg.flow, seg.seq, seg.len);
        return;
      case kindAck:
        onAck(seg.flow, seg.seq);
        return;
    }
    panic("TCP frame with bad kind %u", seg.kind);
}

void
TcpStack::onData(std::uint32_t flow_id, std::uint64_t seq,
                 std::uint64_t len)
{
    ENZIAN_ASSERT(flows_.count(flow_id), "data for unknown flow %u",
                  flow_id);
    segsRx_.inc();
    const Tick done_rx = now() + rxCost(len);
    eventq().schedule(
        done_rx,
        [this, flow_id, seq, len]() {
            Flow &fl = flows_.at(flow_id);
            const std::uint64_t before = fl.rxExpected;
            if (seq + len <= fl.rxExpected) {
                // Already have all of it: a retransmission whose
                // original ack got lost.
                dupSegs_.inc();
            } else if (seq > fl.rxExpected) {
                // Hole before it: hold for reassembly.
                oooSegs_.inc();
                fl.ooo.emplace(seq, len);
            } else {
                fl.rxExpected = seq + len;
                // Drain any held segments made contiguous.
                auto it = fl.ooo.begin();
                while (it != fl.ooo.end() &&
                       it->first <= fl.rxExpected) {
                    fl.rxExpected = std::max(fl.rxExpected,
                                             it->first + it->second);
                    it = fl.ooo.erase(it);
                }
            }
            // Every arrival provokes a cumulative ack, sent before
            // the bytes go to the app; duplicates let a recovering
            // sender notice loss sooner and survive lost acks.
            sendCumAck(flow_id, fl);
            const std::uint64_t delivered = fl.rxExpected - before;
            if (delivered > 0) {
                bytesRx_.inc(delivered);
                deliverToApp(flow_id, delivered);
            }
        },
        "tcp-rx");
}

void
TcpStack::onAck(std::uint32_t flow_id, std::uint64_t cum)
{
    auto it = flows_.find(flow_id);
    ENZIAN_ASSERT(it != flows_.end(), "ack for unknown flow %u",
                  flow_id);
    Flow &f = it->second;
    if (cum <= f.ackedTo) {
        dupAcks_.inc();
        return;
    }
    ENZIAN_ASSERT(cum <= f.txNext, "ack of %llu exceeds bytes sent",
                  static_cast<unsigned long long>(cum));
    const std::uint64_t newly = cum - f.ackedTo;
    f.ackedTo = cum;
    if (rto_ > 0) {
        f.rtoBackoff = 0;
        while (!f.sendQ.empty() &&
               f.sendQ.front().first + f.sendQ.front().second <= cum) {
            f.sendQ.pop_front();
        }
        f.rtoEv.cancel();
        armRto(flow_id);
    }
    creditAck(flow_id, f, newly);
}

void
TcpStack::deliverToApp(std::uint32_t flow_id, std::uint64_t bytes)
{
    // The application sees the data after the app-path latency
    // (DMA/notification).
    if (receiveCb_)
        appRx_.push(now() + units::ns(cfg_.app_latency_ns),
                    AppRx{flow_id, bytes});
}

void
TcpStack::creditAck(std::uint32_t flow_id, Flow &f, std::uint64_t bytes)
{
    std::uint64_t credit = bytes;
    while (credit > 0 && !f.jobs.empty()) {
        SendJob &job = f.jobs.front();
        const std::uint64_t take = std::min(credit, job.unacked);
        job.unacked -= take;
        credit -= take;
        if (job.remaining == 0 && job.unacked == 0) {
            Done done = std::move(job.done);
            sendLatency_.sample(units::toNanos(now() - job.start));
            ENZIAN_SPAN(name(), "send", job.start, now());
            ENZIAN_FLOW_STEP(name(), "acked", now(), job.flowId);
            f.jobs.pop_front();
            if (done)
                done(now());
        } else {
            break;
        }
    }
    pump(flow_id);
}

std::uint64_t
TcpStack::bytesReceived(std::uint32_t flow_id) const
{
    auto it = flows_.find(flow_id);
    return it == flows_.end() ? 0 : it->second.rxExpected;
}

TcpStack::Config
fpgaTcpConfig(std::uint32_t port, double fpga_clock_hz)
{
    // The Sidler et al. stack processes a segment every ~40 fabric
    // cycles through a single shared pipeline whose data path runs at
    // line rate, so throughput depends only on the segment rate.
    TcpStack::Config cfg;
    cfg.port = port;
    cfg.mss = 2048 - tcpHeaderBytes;
    cfg.window_bytes = 256 * 1024;
    cfg.tx_fixed_ns = 40.0 / fpga_clock_hz * 1e9;
    cfg.tx_per_byte_ns = 0.0;
    cfg.rx_fixed_ns = 40.0 / fpga_clock_hz * 1e9;
    cfg.rx_per_byte_ns = 0.0;
    cfg.shared_pipeline = true;
    cfg.app_latency_ns = 1200.0;
    return cfg;
}

TcpStack::Config
hostTcpConfig(std::uint32_t port)
{
    // Linux kernel stack with TSO/GRO: 64 KiB super-segments, a fixed
    // per-segment syscall/softirq cost and a per-byte copy+checksum
    // cost that caps one flow near 27 Gb/s on a Xeon Gold 6248 core.
    TcpStack::Config cfg;
    cfg.port = port;
    cfg.mss = 64 * 1024;
    cfg.window_bytes = 4 * 1024 * 1024;
    cfg.tx_fixed_ns = 800.0;
    cfg.tx_per_byte_ns = 0.28;
    cfg.rx_fixed_ns = 800.0;
    cfg.rx_per_byte_ns = 0.10;
    cfg.shared_pipeline = false; // one core per iperf flow
    cfg.app_latency_ns = 18000.0;
    return cfg;
}

} // namespace enzian::net
