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
 * Plain reads and writes of the exported FPGA DRAM are one-sided RDMA:
 * a net::RdmaInitiator on the compute node against a
 * net::RdmaTarget over net::DirectDramPath on the memory node.
 * DisaggMemoryServer adds the one operation RDMA cannot do, operator
 * pushdown: SCAN_FILTER executes a predicate over fixed-size rows
 * *at the memory* in the server FPGA, returning only matching rows -
 * the whole point of the design is that selection-heavy operators
 * move less data than an RDMA read of the table.
 */

#ifndef ENZIAN_CLUSTER_DISAGG_MEMORY_HH
#define ENZIAN_CLUSTER_DISAGG_MEMORY_HH

#include <functional>
#include <unordered_map>
#include <vector>

#include "mem/memory_controller.hh"
#include "net/switch.hh"
#include "sim/clock_domain.hh"

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
     * @p row_bytes. Checked when a client issues a scan, so a bad
     * offset fails loudly instead of reading past the row buffer.
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
        std::uint32_t port = 0;
        /**
         * Bytes of FPGA DRAM exported from offset 0, the same offsets
         * an RDMA target over DirectDramPath addresses.
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
     * Body of a pushdown frame. A client sends a scan request in it,
     * and the server sends the same record back as the response,
     * carrying the matching rows.
     */
    struct WireRequest
    {
        Addr off = 0;
        std::uint32_t row_bytes = 0;
        std::uint64_t row_count = 0;
        Predicate pred;
        std::uint32_t srcPort = 0;
        /** Request id, unique per client. */
        std::uint64_t id = 0;
        std::vector<std::uint8_t> data; // matching rows
    };

  private:
    void serve(WireRequest &&req);

    net::Switch &sw_;
    mem::MemoryController &mem_;
    Config cfg_;
    Counter served_;
    Counter scanned_;
    Counter returned_;
};

/** Client side: push scans down to a server. */
class DisaggMemoryClient : public SimObject
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

  private:
    void onFrame(Tick when, net::Frame &&frame);

    net::Switch &sw_;
    std::uint32_t port_;
    DisaggMemoryServer &server_;
    std::unordered_map<std::uint64_t, ScanDone> pending_;
    std::uint64_t nextId_ = 1;
};

} // namespace enzian::cluster

#endif // ENZIAN_CLUSTER_DISAGG_MEMORY_HH
