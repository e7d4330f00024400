/**
 * @file
 * Disaggregated memory implementation.
 */

#include "cluster/disagg_memory.hh"

#include <cstring>

#include "base/logging.hh"

namespace enzian::cluster {

namespace {

/** Two-sided RDMA op code of the scan handler. */
constexpr net::RdmaOp opScan{32};

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
    : SimObject(name, eq), mem_(fpga_mem), cfg_(cfg), path_(fpga_mem),
      rdma_(name + ".rdma", eq, sw, path_,
            net::RdmaTarget::Config{cfg.port, cfg.request_proc_ns})
{
    mem_.reserve(0, cfg_.region_size, SimObject::name());
    rdma_.setHandler(opScan, [this](net::RdmaTarget::WireRequest &req) {
        return scan(req);
    });
    stats().addCounter("requests", &served_);
    stats().addCounter("rows_scanned", &scanned_);
    stats().addCounter("bytes_returned", &returned_);
}

Tick
DisaggMemoryServer::scan(net::RdmaTarget::WireRequest &req)
{
    served_.inc();
    const Predicate pred{req.predColumn, static_cast<FilterOp>(req.predOp),
                         req.predOperand};
    pred.validate(req.rowBytes);
    ENZIAN_ASSERT(req.len % req.rowBytes == 0 &&
                      req.len <= cfg_.region_size &&
                      req.off <= cfg_.region_size - req.len,
                  "disagg scan out of region");
    const std::uint64_t row_count = req.len / req.rowBytes;
    // The scan engine streams rows from DRAM and filters in the
    // fabric: time = max(DRAM stream, engine rate).
    std::vector<std::uint8_t> rows(req.len);
    const Tick dram_done =
        mem_.read(now(), req.off, rows.data(), req.len).done;
    const double engine_s = static_cast<double>(row_count) /
                            (cfg_.rows_per_cycle * cfg_.clock_hz);

    req.data.clear();
    for (std::uint64_t r = 0; r < row_count; ++r) {
        const std::uint8_t *row = rows.data() + r * req.rowBytes;
        if (pred.matches(row))
            req.data.insert(req.data.end(), row, row + req.rowBytes);
    }
    scanned_.inc(row_count);
    returned_.inc(req.data.size());
    req.ok = true;
    return std::max(dram_done, now() + units::sec(engine_s));
}

DisaggMemoryClient::DisaggMemoryClient(std::string name, EventQueue &eq,
                                       net::Switch &sw,
                                       std::uint32_t port,
                                       DisaggMemoryServer &server)
    : rdma_(std::move(name), eq, sw, port, server.config().port)
{
}

void
DisaggMemoryClient::scanFilter(Addr off, std::uint32_t row_bytes,
                               std::uint64_t row_count,
                               const Predicate &pred, ScanDone done)
{
    pred.validate(row_bytes);
    net::RdmaTarget::WireRequest req;
    req.op = opScan;
    req.off = off;
    req.len = row_count * row_bytes;
    req.rowBytes = row_bytes;
    req.predColumn = pred.column_offset;
    req.predOp = static_cast<std::uint8_t>(pred.op);
    req.predOperand = pred.operand;
    rdma_.call(std::move(req),
               [done = std::move(done)](Tick t, bool,
                                        std::vector<std::uint8_t> rows) {
                   const std::uint64_t wire =
                       net::rdmaHeaderBytes + rows.size();
                   done(t, std::move(rows), wire);
               });
}

} // namespace enzian::cluster
