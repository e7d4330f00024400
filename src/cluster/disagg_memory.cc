/**
 * @file
 * Disaggregated memory implementation.
 */

#include "cluster/disagg_memory.hh"

#include <cstring>

#include "base/logging.hh"

namespace enzian::cluster {

namespace {

constexpr std::uint32_t headerBytes = 64;

} // namespace

void
Predicate::validate(std::uint32_t row_bytes) const
{
    if (row_bytes < sizeof(std::uint64_t) ||
        column_offset > row_bytes - sizeof(std::uint64_t))
        fatal("pushdown predicate reads 8 bytes at row offset %u, but "
              "rows are only %u bytes",
              column_offset, row_bytes);
}

bool
Predicate::matches(const std::uint8_t *row) const
{
    std::uint64_t v = 0;
    std::memcpy(&v, row + column_offset, sizeof(v));
    switch (op) {
      case FilterOp::Eq:
        return v == operand;
      case FilterOp::Ne:
        return v != operand;
      case FilterOp::Lt:
        return v < operand;
      case FilterOp::Le:
        return v <= operand;
      case FilterOp::Gt:
        return v > operand;
      case FilterOp::Ge:
        return v >= operand;
    }
    panic("bad filter op");
}

DisaggMemoryServer::DisaggMemoryServer(std::string name, EventQueue &eq,
                                       net::Switch &sw,
                                       mem::MemoryController &fpga_mem,
                                       const Config &cfg)
    : SimObject(std::move(name), eq), sw_(sw), mem_(fpga_mem), cfg_(cfg)
{
    sw_.setEndpoint(cfg_.port, [this](Tick, net::Frame &&frame) {
        eventq().scheduleDelta(
            units::ns(cfg_.request_proc_ns),
            [this, body = std::move(frame.body)]() mutable {
                serve(std::move(body.get<WireRequest>()));
            },
            "disagg-request");
    });
    stats().addCounter("requests", &served_);
    stats().addCounter("rows_scanned", &scanned_);
    stats().addCounter("bytes_returned", &returned_);
}

void
DisaggMemoryServer::respondAt(Tick when, WireRequest &&req,
                              const char *what)
{
    net::Payload body;
    body.emplace<WireRequest>(std::move(req));
    eventq().schedule(
        when,
        [this, body = std::move(body)]() mutable {
            const auto &rsp = body.get<WireRequest>();
            const std::uint64_t bytes = headerBytes + rsp.data.size();
            const std::uint32_t dst = rsp.srcPort;
            sw_.sendFrom(cfg_.port,
                         net::Frame{bytes, dst, std::move(body)});
        },
        what);
}

void
DisaggMemoryServer::serve(WireRequest &&req)
{
    served_.inc();

    using Kind = WireRequest::Kind;
    switch (req.kind) {
      case Kind::Read: {
        ENZIAN_ASSERT(req.off + req.len <= cfg_.region_size,
                      "disagg read out of region");
        req.data.resize(req.len);
        const Tick ready =
            mem_.read(now(), cfg_.region_base + req.off, req.data.data(),
                      req.len)
                .done;
        returned_.inc(req.len);
        respondAt(ready, std::move(req), "disagg-read-done");
        return;
      }
      case Kind::Write: {
        ENZIAN_ASSERT(req.off + req.data.size() <= cfg_.region_size,
                      "disagg write out of region");
        const Tick durable =
            mem_.write(now(), cfg_.region_base + req.off,
                       req.data.data(), req.data.size())
                .done;
        req.data.clear(); // the ack carries no data
        respondAt(durable, std::move(req), "disagg-write-done");
        return;
      }
      case Kind::ScanFilter: {
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(req.row_bytes) * req.row_count;
        ENZIAN_ASSERT(req.off + bytes <= cfg_.region_size,
                      "disagg scan out of region");
        req.pred.validate(req.row_bytes);
        // The scan engine streams rows from DRAM and filters in the
        // fabric: time = max(DRAM stream, engine rate).
        std::vector<std::uint8_t> rows(bytes);
        const Tick dram_done =
            mem_.read(now(), cfg_.region_base + req.off, rows.data(),
                      bytes)
                .done;
        const double engine_s =
            static_cast<double>(req.row_count) /
            (cfg_.rows_per_cycle * cfg_.clock_hz);
        const Tick ready =
            std::max(dram_done, now() + units::sec(engine_s));

        std::vector<std::uint8_t> matches;
        for (std::uint64_t r = 0; r < req.row_count; ++r) {
            const std::uint8_t *row = rows.data() + r * req.row_bytes;
            if (req.pred.matches(row))
                matches.insert(matches.end(), row,
                               row + req.row_bytes);
        }
        scanned_.inc(req.row_count);
        returned_.inc(matches.size());
        req.data = std::move(matches);
        respondAt(ready, std::move(req), "disagg-scan-done");
        return;
      }
    }
    panic("bad disagg request kind");
}

DisaggMemoryClient::DisaggMemoryClient(std::string name, EventQueue &eq,
                                       net::Switch &sw,
                                       std::uint32_t port,
                                       DisaggMemoryServer &server)
    : SimObject(std::move(name), eq), sw_(sw), port_(port),
      server_(server)
{
    sw_.setEndpoint(port_, [this](Tick when, net::Frame &&frame) {
        onFrame(when, std::move(frame));
    });
}

void
DisaggMemoryClient::issue(DisaggMemoryServer::WireRequest req,
                          std::uint64_t bytes, Pending p)
{
    req.id = nextId_++;
    req.srcPort = port_;
    pending_[req.id] = std::move(p);
    sw_.sendFrom(port_, net::makeFrame(bytes, server_.config().port,
                                       std::move(req)));
}

void
DisaggMemoryClient::read(Addr off, std::uint8_t *dst, std::uint64_t len,
                         Done done)
{
    DisaggMemoryServer::WireRequest req;
    req.kind = DisaggMemoryServer::WireRequest::Kind::Read;
    req.off = off;
    req.len = len;
    issue(std::move(req), headerBytes, Pending{dst, std::move(done), {}});
}

void
DisaggMemoryClient::write(Addr off, const std::uint8_t *src,
                          std::uint64_t len, Done done)
{
    DisaggMemoryServer::WireRequest req;
    req.kind = DisaggMemoryServer::WireRequest::Kind::Write;
    req.off = off;
    req.data.assign(src, src + len);
    issue(std::move(req), len + headerBytes,
          Pending{nullptr, std::move(done), {}});
}

void
DisaggMemoryClient::scanFilter(Addr off, std::uint32_t row_bytes,
                               std::uint64_t row_count,
                               const Predicate &pred, ScanDone done)
{
    pred.validate(row_bytes);
    DisaggMemoryServer::WireRequest req;
    req.kind = DisaggMemoryServer::WireRequest::Kind::ScanFilter;
    req.off = off;
    req.row_bytes = row_bytes;
    req.row_count = row_count;
    req.pred = pred;
    Pending p;
    p.scan_done = std::move(done);
    issue(std::move(req), headerBytes, std::move(p));
}

void
DisaggMemoryClient::onFrame(Tick when, net::Frame &&frame)
{
    auto &rsp = frame.body.get<DisaggMemoryServer::WireRequest>();
    auto it = pending_.find(rsp.id);
    ENZIAN_ASSERT(it != pending_.end(),
                  "disagg response for unknown id %llu",
                  static_cast<unsigned long long>(rsp.id));
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (p.scan_done) {
        p.scan_done(when, std::move(rsp.data), frame.bytes);
        return;
    }
    if (p.dst && !rsp.data.empty())
        std::memcpy(p.dst, rsp.data.data(), rsp.data.size());
    if (p.done)
        p.done(when);
}

} // namespace enzian::cluster
