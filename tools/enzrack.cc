/**
 * @file
 * enzrack: boot a described Enzian rack and run a canonical
 * replicated-KV workload over it.
 *
 * The rack is data: a plain-text topology (nodes, ports, per-node
 * cable latencies, service placement) either read from a file or
 * generated uniform. The tool instantiates the cluster on its
 * DomainScheduler, places the KV service the topology asks for (or a
 * default one), runs every node through puts plus cross-node gets,
 * and reports the rack's shape, the derived epoch lookahead, and the
 * service counters.
 *
 * Usage:
 *   enzrack --topology FILE   rack description (see DESIGN.md §11)
 *   enzrack --nodes N         uniform rack of N nodes (default 4)
 *   enzrack --ports N         ports per node for --nodes (default 4)
 *   enzrack --threads N       run the rack's timing domains on N
 *                             threads (default 1; also honors
 *                             ENZIAN_THREADS)
 *   enzrack --adaptive        adaptive epochs: grow past the fixed
 *                             lookahead step to the provable delivery
 *                             bound when the rack is quiescent
 *                             (results stay bit-identical at any
 *                             thread count)
 *   enzrack --ops N           puts per node (default 4)
 *   enzrack --describe        print the canonical topology and exit
 *   enzrack --check-determinism
 *                             run the workload at 1 thread and at
 *                             --threads threads and byte-compare the
 *                             stats registries; exit non-zero on any
 *                             divergence
 *   enzrack --json [FILE]     also dump the stats registry JSON
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cluster/enzian_cluster.hh"
#include "cluster/replicated_kv.hh"
#include "obs/registry.hh"
#include "sim/domain_scheduler.hh"

using namespace enzian;
using namespace enzian::cluster;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: enzrack [--topology FILE | --nodes N "
                 "[--ports N]]\n"
                 "               [--threads N] [--adaptive] [--ops N]\n"
                 "               [--describe]\n"
                 "               [--check-determinism] [--json "
                 "[FILE]]\n");
    std::exit(2);
}

std::uint32_t
parseU32(const char *s, const char *what)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 0);
    if (!end || *end) {
        std::fprintf(stderr, "enzrack: bad %s '%s'\n", what, s);
        std::exit(2);
    }
    return static_cast<std::uint32_t>(v);
}

struct RackResult
{
    std::uint64_t events = 0;
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t acks = 0;
    std::uint64_t localReads = 0;
    std::uint64_t remoteReads = 0;
    Tick lookahead = 0;
    std::uint64_t epochs = 0;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::string registryJson;
};

RackResult
runRack(const ClusterTopology &topo, std::uint32_t threads,
        std::uint32_t ops, bool adaptive)
{
    EnzianCluster::Config cfg;
    cfg.topology = topo;
    cfg.threads = threads;
    cfg.adaptive_epochs = adaptive;
    EnzianCluster rack(cfg);

    // The topology's kv service, or a sensible default placement.
    ReplicatedKv::Config kcfg;
    const auto kv_svcs = topo.servicesOf("kv");
    if (!kv_svcs.empty()) {
        kcfg = ReplicatedKv::configFromService(kv_svcs.front(), topo);
    } else if (topo.nodeCount() > 1) {
        kcfg.replicas = {1 % topo.nodeCount()};
    }
    ReplicatedKv kv("rackkv", rack, kcfg);

    const std::uint32_t n = rack.nodeCount();
    std::vector<std::uint8_t> val(kv.config().value_bytes, 0x5c);
    for (std::uint32_t i = 0; i < n; ++i)
        for (std::uint32_t k = 0; k < ops; ++k)
            kv.put(i, static_cast<std::uint64_t>(i) * ops + k,
                   val.data(), [](Tick) {});
    RackResult res;
    res.events = rack.run();

    // Cross-node reads at a fixed tick: node i fetches a key written
    // by its neighbour.
    std::vector<std::vector<std::uint8_t>> outs(
        n, std::vector<std::uint8_t>(kv.config().value_bytes));
    const Tick phase2 = units::us(2000.0);
    for (std::uint32_t i = 0; i < n; ++i) {
        rack.node(i).fpgaEventq().schedule(phase2, [&kv, &outs, i, n,
                                                    ops]() {
            kv.get(i,
                   static_cast<std::uint64_t>((i + 1) % n) * ops,
                   outs[i].data(), [](Tick) {});
        });
    }
    res.events += rack.run();

    res.puts = kv.puts();
    res.gets = kv.gets();
    res.acks = kv.replicaAcks();
    res.localReads = kv.localReads();
    res.remoteReads = kv.remoteReads();
    res.lookahead = EnzianCluster::deriveLookahead(cfg, rack.topology());
    const sim::DomainScheduler &sched = *rack.scheduler();
    res.epochs = sched.epochs();
    res.grows = sched.adaptiveGrows();
    res.shrinks = sched.adaptiveShrinks();
    std::ostringstream os;
    obs::Registry::global().exportJson(os);
    res.registryJson = os.str();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string topo_file;
    std::uint32_t nodes = 4, ports = 4, ops = 4;
    std::uint32_t threads = sim::envThreads();
    bool describe = false, check = false, json = false;
    bool adaptive = false;
    std::string json_file;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--topology")
            topo_file = next();
        else if (arg == "--nodes")
            nodes = parseU32(next(), "--nodes");
        else if (arg == "--ports")
            ports = parseU32(next(), "--ports");
        else if (arg == "--threads")
            threads = parseU32(next(), "--threads");
        else if (arg == "--ops")
            ops = parseU32(next(), "--ops");
        else if (arg == "--adaptive")
            adaptive = true;
        else if (arg == "--describe")
            describe = true;
        else if (arg == "--check-determinism")
            check = true;
        else if (arg == "--json") {
            json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_file = argv[++i];
        } else
            usage();
    }

    const ClusterTopology topo =
        topo_file.empty() ? ClusterTopology::uniform(nodes, ports)
                          : ClusterTopology::parseFile(topo_file);
    if (describe) {
        std::fputs(topo.describe().c_str(), stdout);
        return 0;
    }

    if (check) {
        // The same rack must simulate identically — down to the
        // exported registry bytes — at 1 thread and at N.
        const std::uint32_t n_threads = threads ? threads : 4;
        const auto r1 = runRack(topo, 1, ops, adaptive);
        const auto rn = runRack(topo, n_threads, ops, adaptive);
        const bool same = r1.registryJson == rn.registryJson &&
                          r1.events == rn.events;
        std::printf("determinism: %u nodes%s, 1 vs %u threads: %s "
                    "(%llu events, %zu registry bytes)\n",
                    topo.nodeCount(),
                    adaptive ? " (adaptive epochs)" : "", n_threads,
                    same ? "byte-identical" : "DIVERGED",
                    static_cast<unsigned long long>(r1.events),
                    r1.registryJson.size());
        if (!same)
            return 1;
    }

    const std::uint32_t run_threads = std::max(threads, 1u);
    const auto res = runRack(topo, run_threads, ops, adaptive);
    std::printf("rack '%s': %u nodes, %u switch ports\n",
                topo.name.c_str(), topo.nodeCount(), topo.totalPorts());
    std::printf("  threads: %u, epoch lookahead: %.0f ns "
                "(derived from topology)\n",
                run_threads, units::toNanos(res.lookahead));
    std::printf("  epochs: %llu%s\n",
                static_cast<unsigned long long>(res.epochs),
                adaptive ? " (adaptive)" : " (fixed)");
    if (adaptive)
        std::printf("  adaptive: %llu grown epochs, %llu shrinks "
                    "back to the fixed step\n",
                    static_cast<unsigned long long>(res.grows),
                    static_cast<unsigned long long>(res.shrinks));
    std::printf("  events: %llu\n",
                static_cast<unsigned long long>(res.events));
    std::printf("  kv: %llu puts (%llu replica acks), %llu gets "
                "(%llu local, %llu remote)\n",
                static_cast<unsigned long long>(res.puts),
                static_cast<unsigned long long>(res.acks),
                static_cast<unsigned long long>(res.gets),
                static_cast<unsigned long long>(res.localReads),
                static_cast<unsigned long long>(res.remoteReads));

    if (json) {
        if (json_file.empty()) {
            std::fputs(res.registryJson.c_str(), stdout);
        } else {
            std::ofstream f(json_file, std::ios::trunc);
            f << res.registryJson;
            std::printf("  registry: %s\n", json_file.c_str());
        }
    }
    return 0;
}
