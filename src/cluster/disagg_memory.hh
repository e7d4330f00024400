/**
 * @file
 * Smart disaggregated memory over the FPGA network (paper section 6).
 *
 * "We have recent work on smart disaggregated memory [Farview] where
 * the DRAM of the FPGA is made available as network attached memory
 * and accessible either through RDMA, or on Enzian by extending the
 * cache coherency protocol via a 'bridge' implemented on the FPGA.
 * This disaggregated memory can be used, for example, as a database
 * buffer cache with operator off-loading and push down directly to
 * the memory."
 *
 * The memory node serves everything from one net::RdmaTarget over
 * net::DirectDramPath: plain reads and writes of the exported FPGA
 * DRAM are one-sided RDMA, and operator pushdown is a two-sided
 * request whose handler runs at the target. SCAN_FILTER executes a
 * predicate over fixed-size rows *at the memory* in the server FPGA,
 * returning only matching rows - the whole point of the design is
 * that selection-heavy operators move less data than an RDMA read of
 * the table. A scan is idempotent, so RDMA's retry may rerun it.
 */

#ifndef ENZIAN_CLUSTER_DISAGG_MEMORY_HH
#define ENZIAN_CLUSTER_DISAGG_MEMORY_HH

#include <functional>
#include <vector>

#include "mem/memory_controller.hh"
#include "net/rdma_engine.hh"

namespace enzian::cluster {

/** Comparison operators a pushed-down predicate may use. */
enum class FilterOp : std::uint8_t {
    Eq = 0,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
};

/** A pushdown predicate over one 64-bit column of fixed-size rows. */
struct Predicate
{
    /** Byte offset of the column within a row. */
    std::uint32_t column_offset = 0;
    FilterOp op = FilterOp::Eq;
    std::uint64_t operand = 0;

    /**
     * Fatal unless the 8-byte column read fits inside a row of
     * @p row_bytes. Checked when a client issues a scan and again
     * when the server runs it, so a bad offset fails loudly instead
     * of reading past the row buffer.
     */
    void validate(std::uint32_t row_bytes) const;

    /** Evaluate against one row (validate() must have passed). */
    bool matches(const std::uint8_t *row) const;
};

/** Operator pushdown into network-attached FPGA memory. */
class DisaggMemoryServer : public SimObject
{
  public:
    /** Server configuration. */
    struct Config
    {
        /** Switch port of the memory node's RDMA target. */
        std::uint32_t port = 0;
        /**
         * Bytes of FPGA DRAM exported from offset 0, the same offsets
         * an RDMA target over DirectDramPath addresses. Reserved in
         * the controller at construction.
         */
        std::uint64_t region_size = 64ull << 20;
        /** Request parsing cost (ns). */
        double request_proc_ns = 250.0;
        /**
         * Scan engine throughput in rows per fabric cycle. The
         * engine consumes a 64-byte beat per cycle, so 16-byte rows
         * scan at 4 rows/cycle.
         */
        double rows_per_cycle = 4.0;
        /** Fabric clock (Hz). */
        double clock_hz = 250e6;
    };

    DisaggMemoryServer(std::string name, EventQueue &eq, net::Switch &sw,
                       mem::MemoryController &fpga_mem,
                       const Config &cfg);

    std::uint64_t requestsServed() const { return served_.value(); }
    std::uint64_t rowsScanned() const { return scanned_.value(); }
    std::uint64_t bytesReturned() const { return returned_.value(); }

    const Config &config() const { return cfg_; }

    /**
     * The memory node's RDMA target: one-sided reads and writes of
     * the region, and the pushdown scan.
     */
    net::RdmaTarget &rdma() { return rdma_; }

  private:
    /** The scan handler; returns the tick its matches are ready. */
    Tick scan(net::RdmaTarget::WireRequest &req);

    mem::MemoryController &mem_;
    Config cfg_;
    net::DirectDramPath path_;
    net::RdmaTarget rdma_;
    Counter served_;
    Counter scanned_;
    Counter returned_;
};

/** Client side: RDMA to a server's region, and scans pushed down. */
class DisaggMemoryClient
{
  public:
    /** Scan completion: (tick, matching rows, bytes on the wire). */
    using ScanDone = std::function<void(
        Tick, std::vector<std::uint8_t>, std::uint64_t)>;

    /**
     * @param server the serving instance; its port is the
     *        destination of every request
     */
    DisaggMemoryClient(std::string name, EventQueue &eq,
                       net::Switch &sw, std::uint32_t port,
                       DisaggMemoryServer &server);

    /**
     * Push a filter down to the memory: scan @p row_count rows of
     * @p row_bytes starting at @p off, return only rows matching
     * @p pred.
     */
    void scanFilter(Addr off, std::uint32_t row_bytes,
                    std::uint64_t row_count, const Predicate &pred,
                    ScanDone done);

    /** The RDMA initiator: plain reads and writes, and the scans. */
    net::RdmaInitiator &rdma() { return rdma_; }

  private:
    net::RdmaInitiator rdma_;
};

} // namespace enzian::cluster

#endif // ENZIAN_CLUSTER_DISAGG_MEMORY_HH
