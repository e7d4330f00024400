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
DisaggMemoryServer::serve(WireRequest &&req)
{
    served_.inc();
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(req.row_bytes) * req.row_count;
    ENZIAN_ASSERT(req.off + bytes <= cfg_.region_size,
                  "disagg scan out of region");
    req.pred.validate(req.row_bytes);
    // The scan engine streams rows from DRAM and filters in the
    // fabric: time = max(DRAM stream, engine rate).
    std::vector<std::uint8_t> rows(bytes);
    const Tick dram_done = mem_.read(now(), req.off, rows.data(), bytes).done;
    const double engine_s = static_cast<double>(req.row_count) /
                            (cfg_.rows_per_cycle * cfg_.clock_hz);
    const Tick ready = std::max(dram_done, now() + units::sec(engine_s));

    std::vector<std::uint8_t> matches;
    for (std::uint64_t r = 0; r < req.row_count; ++r) {
        const std::uint8_t *row = rows.data() + r * req.row_bytes;
        if (req.pred.matches(row))
            matches.insert(matches.end(), row, row + req.row_bytes);
    }
    scanned_.inc(req.row_count);
    returned_.inc(matches.size());
    req.data = std::move(matches);

    net::Payload body;
    body.emplace<WireRequest>(std::move(req));
    eventq().schedule(
        ready,
        [this, body = std::move(body)]() mutable {
            const auto &rsp = body.get<WireRequest>();
            const std::uint64_t wire = headerBytes + rsp.data.size();
            const std::uint32_t dst = rsp.srcPort;
            sw_.sendFrom(cfg_.port,
                         net::Frame{wire, dst, std::move(body)});
        },
        "disagg-scan-done");
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
DisaggMemoryClient::scanFilter(Addr off, std::uint32_t row_bytes,
                               std::uint64_t row_count,
                               const Predicate &pred, ScanDone done)
{
    pred.validate(row_bytes);
    DisaggMemoryServer::WireRequest req;
    req.off = off;
    req.row_bytes = row_bytes;
    req.row_count = row_count;
    req.pred = pred;
    req.id = nextId_++;
    req.srcPort = port_;
    pending_.emplace(req.id, std::move(done));
    sw_.sendFrom(port_, net::makeFrame(headerBytes, server_.config().port,
                                       std::move(req)));
}

void
DisaggMemoryClient::onFrame(Tick when, net::Frame &&frame)
{
    auto &rsp = frame.body.get<DisaggMemoryServer::WireRequest>();
    auto it = pending_.find(rsp.id);
    ENZIAN_ASSERT(it != pending_.end(),
                  "disagg response for unknown id %llu",
                  static_cast<unsigned long long>(rsp.id));
    ScanDone done = std::move(it->second);
    pending_.erase(it);
    done(when, std::move(rsp.data), frame.bytes);
}

} // namespace enzian::cluster
