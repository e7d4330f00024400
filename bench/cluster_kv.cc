/**
 * @file
 * Replicated-KV placement experiment: where should the values live?
 *
 * The same replicated store (primary + 1 replica on a 4-node rack)
 * serves gets/puts with its slots placed three ways:
 *
 *  - dram:      the serving FPGA's own DDR4 — the network is the
 *               whole cost;
 *  - eci-host:  CPU host memory reached coherently over ECI — adds
 *               the ECI round trip per line;
 *  - pcie-host: CPU host memory reached by PCIe DMA — adds DMA
 *               descriptor + staging cost.
 *
 * For each placement the bench reports the remote-get latency (client
 * with no co-located replica: network + placement path), the
 * local-get latency (client on a replica node: placement path only —
 * zero network), and the all-ack put latency (fan-out to primary +
 * replica). This quantifies the paper's memory-hierarchy argument at
 * rack scale: placement is a latency knob the topology description
 * can turn per service.
 *
 * Honours ENZIAN_THREADS; the rows are the same at any thread count.
 * On pcie-host the DMA engine runs in the FPGA domain and its host
 * memory half in the CPU domain.
 */

#include "bench_common.hh"

#include "cluster/enzian_cluster.hh"
#include "cluster/replicated_kv.hh"

using namespace enzian;
using namespace enzian::bench;
using namespace enzian::cluster;

namespace {

constexpr std::uint32_t kValueBytes = 4096;
constexpr std::uint32_t kOps = 32;

struct PlacementResult
{
    double remoteGetUs = 0.0;
    double localGetUs = 0.0;
    double putUs = 0.0;
};

PlacementResult
runPlacement(const std::string &placement)
{
    EnzianCluster::Config cfg;
    cfg.nodes = 4;
    cfg.threads = envThreads();
    EnzianCluster rack(cfg);

    ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1};
    kcfg.placement = placement;
    kcfg.slots = 256;
    kcfg.value_bytes = kValueBytes;
    ReplicatedKv kv("kv_" + placement, rack, kcfg);

    std::vector<std::uint8_t> val(kValueBytes, 0x6b);
    std::vector<std::uint8_t> out(kValueBytes);
    PlacementResult res;

    auto measure = [&](auto op) {
        double total = 0.0;
        for (std::uint32_t k = 0; k < kOps; ++k) {
            const Tick start = rack.scheduler()->now();
            Tick end = 0;
            op(k, [&end](Tick t) { end = t; });
            rack.run();
            if (!end)
                fatal("kv op %u never completed", k);
            total += units::toMicros(end - start);
        }
        return total / kOps;
    };

    res.putUs = measure([&](std::uint64_t k, ReplicatedKv::Done done) {
        kv.put(3, k, val.data(), std::move(done));
    });
    // Node 3 holds no replica: network to the nearest store.
    res.remoteGetUs =
        measure([&](std::uint64_t k, ReplicatedKv::Done done) {
            kv.get(3, k, out.data(), std::move(done));
        });
    // Node 1 is a replica: placement path only, no network.
    res.localGetUs =
        measure([&](std::uint64_t k, ReplicatedKv::Done done) {
            kv.get(1, k, out.data(), std::move(done));
        });
    if (out != val)
        fatal("kv bench read back the wrong bytes");
    return res;
}

} // namespace

int
main()
{
    header("Replicated KV: value placement, 4 KiB values, "
           "primary + 1 replica");
    BenchReport rep("cluster_kv");

    std::printf("%12s %16s %16s %16s\n", "placement", "remote_get_us",
                "local_get_us", "put_allack_us");
    for (const std::string placement :
         {"dram", "eci-host", "pcie-host"}) {
        const auto r = runPlacement(placement);
        std::printf("%12s %16.2f %16.2f %16.2f\n", placement.c_str(),
                    r.remoteGetUs, r.localGetUs, r.putUs);
        const std::string key =
            placement == "eci-host"
                ? "eci"
                : (placement == "pcie-host" ? "pcie" : "dram");
        rep.add(key + "_remote_get_us", r.remoteGetUs);
        rep.add(key + "_local_get_us", r.localGetUs);
        rep.add(key + "_put_us", r.putUs);
    }
    std::printf("\nShape check: dram is the floor (network only); "
                "eci-host adds the coherent ECI hop per line; "
                "pcie-host adds DMA staging on top. Local gets drop "
                "the network entirely, so placement choice dominates "
                "them.\n");
    return 0;
}
