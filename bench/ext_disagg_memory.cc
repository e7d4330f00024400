/**
 * @file
 * Extension bench (paper section 6 use-case): smart disaggregated
 * memory with operator pushdown vs RDMA-style full reads, across
 * selectivities. Not a paper figure - the paper sketches this
 * use-case (Farview) as enabled future work; the bench quantifies the
 * crossover the design argument predicts: pushdown wins whenever the
 * selected fraction is small enough that scan time at the memory
 * beats shipping the table.
 *
 * The table load and the full-read baseline are one-sided RDMA into
 * the server node's FPGA DRAM, and the scan is a two-sided request to
 * the same RDMA target, so each node uses one port. Server and client
 * run on their own node's FPGA domain; honours ENZIAN_THREADS, with
 * the same rows at any thread count.
 */

#include "bench_common.hh"

#include <cstring>

#include "cluster/disagg_memory.hh"
#include "cluster/enzian_cluster.hh"

using namespace enzian;
using namespace enzian::cluster;

int
main()
{
    bench::header(
        "Extension: disaggregated memory, pushdown vs full read");
    bench::BenchReport rep("ext_disagg_memory");

    constexpr std::uint32_t row = 16;
    constexpr std::uint64_t rows = 1u << 20;
    std::printf("table: %llu rows x %u B = %llu MiB on the remote "
                "node\n\n",
                static_cast<unsigned long long>(rows), row,
                static_cast<unsigned long long>(rows * row >> 20));
    std::printf("%14s %14s %14s %14s %14s\n", "selectivity",
                "pushdown_us", "fullread_us", "wire_KiB",
                "data_saving");

    for (const double sel : {0.0001, 0.001, 0.01, 0.1, 0.5, 1.0}) {
        EnzianCluster::Config ccfg;
        ccfg.nodes = 2;
        ccfg.threads = bench::envThreads();
        EnzianCluster rack(ccfg);
        DisaggMemoryServer::Config scfg;
        scfg.port = rack.portOf(0);
        scfg.region_size = 64ull << 20;
        DisaggMemoryServer server("srv", rack.node(0).fpgaEventq(),
                                  rack.network(), rack.node(0).fpgaMem(),
                                  scfg);
        DisaggMemoryClient client("cli", rack.node(1).fpgaEventq(),
                                  rack.network(), rack.portOf(1), server);
        net::RdmaInitiator &rdma = client.rdma();

        std::vector<std::uint8_t> table(rows * row);
        for (std::uint64_t k = 0; k < rows; ++k)
            std::memcpy(&table[k * row], &k, 8);
        bool loaded = false;
        rdma.write(0, table.data(), table.size(),
                   [&](Tick) { loaded = true; });
        rack.run();
        if (!loaded)
            fatal("table load failed");

        Predicate pred;
        pred.column_offset = 0;
        pred.op = FilterOp::Lt;
        pred.operand =
            static_cast<std::uint64_t>(sel * static_cast<double>(rows));

        Tick scan_t = 0;
        std::uint64_t wire = 0;
        const Tick t0 = rdma.now();
        client.scanFilter(0, row, rows, pred,
                          [&](Tick t, std::vector<std::uint8_t>,
                              std::uint64_t w) {
                              scan_t = t - t0;
                              wire = w;
                          });
        rack.run();

        std::vector<std::uint8_t> full(rows * row);
        Tick read_t = 0;
        const Tick t1 = rdma.now();
        rdma.read(0, full.data(), full.size(),
                  [&](Tick t) { read_t = t - t1; });
        rack.run();

        std::printf("%13.2f%% %14.0f %14.0f %14.1f %13.1fx\n",
                    sel * 100.0, units::toMicros(scan_t),
                    units::toMicros(read_t), wire / 1024.0,
                    static_cast<double>(full.size()) /
                        static_cast<double>(wire));
        const std::string key = format("sel_%g", sel);
        rep.add(key + "_pushdown_us", units::toMicros(scan_t));
        rep.add(key + "_fullread_us", units::toMicros(read_t));
        rep.add(key + "_wire_kib", wire / 1024.0);
    }
    std::printf("\nShape check: at low selectivity pushdown wins on "
                "both wall time and (dramatically) data moved; at "
                "selectivity 1.0 it degenerates to a full read plus "
                "scan cost.\n");
    return 0;
}
