/**
 * @file
 * Smart disaggregated memory on an Enzian cluster (paper section 6).
 *
 * Node 0 exports its FPGA DRAM as network-attached memory through one
 * RDMA target: plain reads and writes are one-sided RDMA, and
 * operator pushdown is a two-sided request whose scan runs at the
 * target (the Farview idea: a database buffer cache where selection
 * runs *at the memory*); node 1 is the compute node. The example also extends cache coherence across the rack:
 * node 1's CPU caches node 0's memory through the FPGA bridge, which
 * carries its lines over RDMA too. Every service runs on its node's
 * FPGA timing domain, and rack.run() drives them all.
 *
 * Build & run:  ./build/examples/disaggregated_memory
 */

#include <cstdio>
#include <cstring>

#include "cluster/disagg_memory.hh"
#include "cluster/eci_bridge.hh"
#include "cluster/enzian_cluster.hh"

using namespace enzian;
using namespace enzian::cluster;

int
main()
{
    EnzianCluster::Config ccfg;
    ccfg.nodes = 2;
    EnzianCluster rack(ccfg);
    std::printf("cluster: %u Enzians, %u-port 100 GbE switch\n",
                rack.nodeCount(), rack.network().portCount());

    // --- Farview-style: operator pushdown to remote memory ---------
    DisaggMemoryServer::Config scfg;
    scfg.port = rack.portOf(0);
    scfg.region_size = 64ull << 20;
    DisaggMemoryServer server("farview", rack.node(0).fpgaEventq(),
                              rack.network(), rack.node(0).fpgaMem(),
                              scfg);
    DisaggMemoryClient db("db", rack.node(1).fpgaEventq(),
                          rack.network(), rack.portOf(1), server);

    // A 1M-row table of {key, payload} pairs in remote memory.
    constexpr std::uint32_t row = 16;
    constexpr std::uint64_t rows = 1u << 20;
    {
        std::vector<std::uint8_t> table(rows * row);
        for (std::uint64_t k = 0; k < rows; ++k) {
            std::memcpy(&table[k * row], &k, 8);
            std::memcpy(&table[k * row + 8], &k, 8);
        }
        bool loaded = false;
        db.rdma().write(0, table.data(), table.size(),
                        [&](Tick) { loaded = true; });
        rack.run();
        std::printf("loaded %llu MiB table into node0's FPGA DRAM: %s\n",
                    static_cast<unsigned long long>(table.size() >> 20),
                    loaded ? "ok" : "FAILED");
    }

    // SELECT * WHERE key >= 0.99 * rows: pushdown vs full read.
    Predicate pred;
    pred.column_offset = 0;
    pred.op = FilterOp::Ge;
    pred.operand = rows - rows / 100;

    Tick scan_t = 0;
    std::uint64_t scan_wire = 0, match_rows = 0;
    const Tick t0 = db.rdma().now();
    db.scanFilter(0, row, rows, pred,
                  [&](Tick t, std::vector<std::uint8_t> m,
                      std::uint64_t wire) {
                      scan_t = t - t0;
                      scan_wire = wire;
                      match_rows = m.size() / row;
                  });
    rack.run();

    std::vector<std::uint8_t> full(rows * row);
    Tick read_t = 0;
    const Tick t1 = db.rdma().now();
    db.rdma().read(0, full.data(), full.size(),
                   [&](Tick t) { read_t = t - t1; });
    rack.run();

    std::printf("\nselect 1%% of %llu rows:\n",
                static_cast<unsigned long long>(rows));
    std::printf("  pushdown: %8.0f us, %6.2f MiB on the wire, %llu "
                "rows\n",
                units::toMicros(scan_t), scan_wire / 1048576.0,
                static_cast<unsigned long long>(match_rows));
    std::printf("  full read:%8.0f us, %6.2f MiB on the wire\n",
                units::toMicros(read_t), full.size() / 1048576.0);
    std::printf("  => pushdown moves %.0fx less data\n",
                static_cast<double>(full.size()) /
                    static_cast<double>(scan_wire));

    // --- coherence across the rack ----------------------------------
    std::printf("\ncoherence bridge: node1's CPU caches node0's "
                "memory\n");
    EciBridgeTarget::Config bcfg;
    bcfg.port = rack.portOf(0, 1);
    EciBridgeTarget bridge_t("bridge.t", rack.node(0).fpgaEventq(),
                             rack.network(), rack.node(0).fpgaRemote(),
                             bcfg);
    eci::DramLineSource fb(rack.node(1).fpgaMem(), rack.node(1).map());
    EciBridgeSource::Config bscfg;
    bscfg.port = rack.portOf(1, 1);
    bscfg.window_base = mem::AddressMap::fpgaDramBase + (128ull << 20);
    bscfg.window_size = 16ull << 20;
    EciBridgeSource bridge_s("bridge.s", rack.node(1).fpgaEventq(),
                             rack.network(), fb, bridge_t, bscfg);
    rack.node(1).fpgaHome().setLineSource(&bridge_s);

    std::vector<std::uint8_t> secret(cache::lineSize, 0x42);
    rack.node(0).l2().fill(0x8000, cache::MoesiState::Modified,
                           secret.data()); // dirty on node 0!
    std::uint8_t got[cache::lineSize] = {};
    const Tick t2 = rack.node(1).now();
    Tick lat = 0;
    rack.node(1).cpuRemote().readLine(
        bscfg.window_base + 0x8000, got,
        [&](Tick t) { lat = t - t2; });
    rack.run();
    std::printf("  node1 read a line DIRTY in node0's L2 in %.2f us: "
                "0x%02x (%s), now cached %s on node1\n",
                units::toMicros(lat), got[0],
                got[0] == 0x42 ? "coherent" : "STALE",
                cache::toString(rack.node(1).l2().probe(
                    bscfg.window_base + 0x8000)));
    return got[0] == 0x42 ? 0 : 1;
}
