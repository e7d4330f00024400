/**
 * @file
 * Rack-scale tests: N-node clusters on the domain scheduler
 * (thread-count determinism down to the registry bytes), the
 * replicated KV store (read-your-writes, nearest-replica reads,
 * recovery under RDMA request drops), and regressions for the
 * cluster-layer bug purge (two servers in one process, frames for
 * unknown switch ports, out-of-bounds pushdown predicates, bridged
 * lines under RDMA loss).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "accel/kv_store.hh"
#include "base/rng.hh"
#include "cluster/disagg_memory.hh"
#include "cluster/eci_bridge.hh"
#include "cluster/enzian_cluster.hh"
#include "cluster/replicated_kv.hh"
#include "net/rdma_engine.hh"
#include "net/tcp_stack.hh"
#include "obs/registry.hh"

namespace enzian::cluster {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kValueBytes = 128;

std::vector<std::uint8_t>
patternFor(std::uint64_t key)
{
    std::vector<std::uint8_t> v(kValueBytes);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<std::uint8_t>(key * 41 + i);
    return v;
}

std::string
registryJson()
{
    std::ostringstream os;
    obs::Registry::global().exportJson(os);
    return os.str();
}

/** Completion-tick traces + registry bytes of a rack KV workload. */
struct RackRun
{
    std::vector<Tick> ticks;
    std::string registryJson;
    std::vector<std::vector<std::uint8_t>> values;
};

RackRun
rackKvWorkload(std::uint32_t threads)
{
    EnzianCluster::Config cfg;
    cfg.nodes = kNodes;
    cfg.threads = threads;
    EnzianCluster rack(cfg);

    ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1, 2};
    kcfg.value_bytes = kValueBytes;
    ReplicatedKv kv("rackkv", rack, kcfg);

    // Phase 1: every node puts its own keys. Completion callbacks run
    // in the issuing node's domain, so traces are per-node and merged
    // after the run.
    std::array<std::vector<Tick>, kNodes> trace;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
        for (std::uint64_t k = 0; k < 4; ++k) {
            const std::uint64_t key = n * 8 + k;
            const auto val = patternFor(key);
            kv.put(n, key, val.data(),
                   [&trace, n](Tick t) { trace[n].push_back(t); });
        }
    }
    rack.run();

    // Phase 2: every node reads a neighbour's key, issued at a fixed
    // absolute tick (after a run a domain queue sits at its epoch end,
    // so "now" is not comparable across modes).
    const Tick phase2 = units::us(1000.0);
    RackRun out;
    out.values.assign(kNodes, std::vector<std::uint8_t>(kValueBytes));
    for (std::uint32_t n = 0; n < kNodes; ++n) {
        rack.node(n).fpgaEventq().schedule(phase2, [&, n]() {
            const std::uint64_t key = ((n + 1) % kNodes) * 8;
            kv.get(n, key, out.values[n].data(),
                   [&trace, n](Tick t) { trace[n].push_back(t); });
        });
    }
    rack.run();

    for (const auto &t : trace)
        out.ticks.insert(out.ticks.end(), t.begin(), t.end());
    out.registryJson = registryJson();
    return out;
}

TEST(ClusterParallel, RegistryByteIdenticalAcrossThreadCounts)
{
    const auto r1 = rackKvWorkload(1);
    const auto r4 = rackKvWorkload(4);
    ASSERT_EQ(r1.ticks.size(), kNodes * 5u);
    EXPECT_EQ(r1.ticks, r4.ticks);
    // The whole observable state of the rack, byte for byte.
    EXPECT_FALSE(r1.registryJson.empty());
    EXPECT_EQ(r1.registryJson, r4.registryJson);
    EXPECT_EQ(r1.values, r4.values);
    for (std::uint32_t n = 0; n < kNodes; ++n)
        EXPECT_EQ(r1.values[n], patternFor(((n + 1) % kNodes) * 8));
}

TEST(ClusterParallel, RegistryIdenticalAtUnevenThreadCounts)
{
    // The rack has 9 domains: 3 threads split them unevenly, and 16
    // exceeds the domain count, so the participants are capped.
    const auto r1 = rackKvWorkload(1);
    for (const std::uint32_t threads : {3u, 16u}) {
        const auto rt = rackKvWorkload(threads);
        EXPECT_EQ(r1.ticks, rt.ticks) << threads << " threads";
        EXPECT_EQ(r1.values, rt.values) << threads << " threads";
        EXPECT_EQ(r1.registryJson, rt.registryJson)
            << threads << " threads";
    }
}

TEST(ClusterParallel, DomainModeMatchesLegacyTicks)
{
    // The rack on timing domains simulates exactly what the retired
    // shared-queue rack did: these are that rack's completion ticks
    // (four puts, then one get, per node).
    const std::vector<Tick> legacy = {
        3448253, 3521853, 3595453, 3669053, 1000058333,
        3466653, 3540253, 3613853, 3687453, 1000058333,
        3485053, 3558653, 3632253, 3705853, 1000058333,
        3503453, 3577053, 3650653, 3724253, 1003411453,
    };
    const auto domain = rackKvWorkload(1);
    EXPECT_EQ(domain.ticks, legacy);
    for (std::uint32_t n = 0; n < kNodes; ++n)
        EXPECT_EQ(domain.values[n], patternFor(((n + 1) % kNodes) * 8));
}

/** Registry bytes without the domain scheduler's own statistics. */
std::string
modelRegistryJson()
{
    auto snap = obs::Registry::global().snapshot();
    std::erase_if(snap, [](const auto &kv) {
        return kv.first.starts_with("rack.sched.");
    });
    std::ostringstream os;
    obs::Registry::exportJson(snap, os);
    return os.str();
}

/** A checked-in golden file's bytes. */
std::string
goldenFile(const std::string &name)
{
    std::ifstream f(std::string(ENZIAN_GOLDEN_DIR) + "/" + name);
    EXPECT_TRUE(f.good()) << name;
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** Outcome of an RDMA read whose first attempt expires unserved. */
struct AbandonRun
{
    std::string registryJson;
    std::string modelJson;
    std::vector<std::uint8_t> got;
    std::uint64_t stale = 0;
    std::uint64_t retries = 0;
};

AbandonRun
rdmaAbandonWorkload(std::uint32_t threads)
{
    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    cfg.threads = threads;
    EnzianCluster rack(cfg);
    auto &host = rack.node(1);
    net::DirectDramPath path(host.fpgaMem());
    net::RdmaTarget::Config tcfg;
    tcfg.port = rack.portOf(1);
    // Parsing outlasts the initiator's 10 us timeout, so the first
    // attempt has expired by the time the target gets to it; the
    // retry's doubled timeout leaves room to serve it.
    tcfg.request_proc_ns = 15000.0;
    net::RdmaTarget target("abandon.target", host.fpgaEventq(),
                           rack.network(), path, tcfg);
    net::RdmaInitiator init("abandon.init", rack.node(0).fpgaEventq(),
                            rack.network(), rack.portOf(0),
                            rack.portOf(1));
    init.enableRecovery(10.0);

    const auto want = patternFor(3);
    host.fpgaMem().store().write(0x4000, want.data(), want.size());
    AbandonRun out;
    out.got.assign(want.size(), 0);
    bool done = false;
    init.read(0x4000, out.got.data(), out.got.size(),
              [&](Tick) { done = true; });
    rack.run();
    EXPECT_TRUE(done);
    out.stale = target.staleRequests();
    out.retries = init.retriesSent();
    out.registryJson = registryJson();
    out.modelJson = modelRegistryJson();
    return out;
}

TEST(ClusterParallel, RdmaAbandonmentIsDeterministic)
{
    // Whether the target finds an abandoned attempt is decided by
    // simulated time (the attempt's expiry tick), not by which domain
    // thread ran first.
    const auto t1 = rdmaAbandonWorkload(1);
    const auto t4 = rdmaAbandonWorkload(4);
    EXPECT_GE(t1.stale, 1u);
    EXPECT_GE(t1.retries, 1u);
    EXPECT_EQ(t1.got, patternFor(3));
    EXPECT_EQ(t4.got, patternFor(3));
    // The model statistics are those the retired shared-queue rack
    // exported for the same run.
    EXPECT_EQ(t1.modelJson, goldenFile("registry_rdma_abandon.json"));
    EXPECT_EQ(t1.registryJson, t4.registryJson);
}

constexpr std::uint32_t kKvOps = 16;

std::vector<std::uint8_t>
kvValue(std::uint32_t pair, std::uint32_t op)
{
    return std::vector<std::uint8_t>(
        40, static_cast<std::uint8_t>(pair * kKvOps + op));
}

/** What each wire service delivered, plus the registry bytes. */
struct WireServicesRun
{
    std::array<std::uint64_t, 2> tcpBytes{};
    std::array<std::uint32_t, 2> kvVerified{};
    std::array<std::vector<std::uint8_t>, 2> rdmaValues;
    std::string registryJson;
};

WireServicesRun
wireServicesWorkload(std::uint32_t threads)
{
    // Two pairs of each wire service, every endpoint on its own
    // node's FPGA domain, so under threads=4 both ends of every pair
    // and the two pairs run on different threads at once.
    EnzianCluster::Config cfg;
    cfg.nodes = 4;
    cfg.threads = threads;
    EnzianCluster rack(cfg);
    net::Switch &sw = rack.network();
    auto fq = [&](std::uint32_t n) -> EventQueue & {
        return rack.node(n).fpgaEventq();
    };
    WireServicesRun out;

    // TCP: node 0 -> node 1 and node 2 -> node 3, on link 0, with
    // recovery on, so each stack also arms its RTO timers on its own
    // node's domain.
    constexpr std::uint64_t kTcpBytes = 200 * 1024;
    std::vector<std::unique_ptr<net::TcpStack>> tcp;
    for (std::uint32_t n = 0; n < 4; ++n) {
        tcp.push_back(std::make_unique<net::TcpStack>(
            "wire.tcp" + std::to_string(n), fq(n), sw,
            net::fpgaTcpConfig(rack.portOf(n, 0), 250e6)));
        tcp.back()->enableRecovery();
    }
    std::array<std::uint32_t, 2> flows{};
    for (std::uint32_t p = 0; p < 2; ++p) {
        flows[p] = tcp[2 * p]->connect(*tcp[2 * p + 1]);
        tcp[2 * p]->send(flows[p], kTcpBytes, net::TcpStack::Done());
    }

    // Accelerator KV: servers on nodes 1 and 3, clients on 2 and 0.
    std::vector<std::unique_ptr<accel::KvStoreServer>> kvServers;
    std::vector<std::unique_ptr<accel::KvClient>> kvClients;
    constexpr std::uint32_t kKvServer[] = {1, 3}, kKvClient[] = {2, 0};
    for (std::uint32_t p = 0; p < 2; ++p) {
        const std::uint32_t srv = kKvServer[p], cli = kKvClient[p];
        accel::KvStoreServer::Config kcfg;
        kcfg.port = rack.portOf(srv, 1);
        kcfg.slots = 1024;
        kvServers.push_back(std::make_unique<accel::KvStoreServer>(
            "wire.kvs" + std::to_string(p), fq(srv), sw,
            rack.node(srv).fpgaMem(), kcfg));
        kvClients.push_back(std::make_unique<accel::KvClient>(
            "wire.kvc" + std::to_string(p), fq(cli), sw,
            rack.portOf(cli, 1), kcfg.port));
    }
    // Each client runs kKvOps put-then-get rounds back to back.
    std::array<std::function<void(std::uint32_t)>, 2> kvStep;
    for (std::uint32_t p = 0; p < 2; ++p) {
        kvStep[p] = [&, p](std::uint32_t i) {
            if (i == kKvOps)
                return;
            const std::uint64_t key = 100 + p * kKvOps + i;
            const auto value = kvValue(p, i);
            kvClients[p]->put(
                key, value.data(),
                static_cast<std::uint32_t>(value.size()),
                [&, p, i, key](Tick, bool ok) {
                    EXPECT_TRUE(ok);
                    kvClients[p]->get(
                        key, [&, p, i](Tick, bool found,
                                       std::vector<std::uint8_t> v) {
                            if (found && v == kvValue(p, i))
                                ++out.kvVerified[p];
                            kvStep[p](i + 1);
                        });
                });
        };
        kvStep[p](0);
    }

    // RDMA: targets on nodes 2 and 0, initiators on 3 and 1.
    std::vector<std::unique_ptr<net::DirectDramPath>> paths;
    std::vector<std::unique_ptr<net::RdmaTarget>> targets;
    std::vector<std::unique_ptr<net::RdmaInitiator>> inits;
    constexpr std::uint32_t kTarget[] = {2, 0}, kInitiator[] = {3, 1};
    for (std::uint32_t p = 0; p < 2; ++p) {
        const std::uint32_t tgt = kTarget[p], ini = kInitiator[p];
        net::RdmaTarget::Config tcfg;
        tcfg.port = rack.portOf(tgt, 2);
        paths.push_back(std::make_unique<net::DirectDramPath>(
            rack.node(tgt).fpgaMem()));
        targets.push_back(std::make_unique<net::RdmaTarget>(
            "wire.rdmat" + std::to_string(p), fq(tgt), sw, *paths[p],
            tcfg));
        inits.push_back(std::make_unique<net::RdmaInitiator>(
            "wire.rdmai" + std::to_string(p), fq(ini), sw,
            rack.portOf(ini, 2), tcfg.port));
    }
    for (std::uint32_t p = 0; p < 2; ++p) {
        const auto value = patternFor(p);
        net::RdmaInitiator &ini = *inits[p];
        out.rdmaValues[p].assign(value.size(), 0);
        ini.write(0x8000, value.data(), value.size(),
                  [&out, &ini, p](Tick) {
                      ini.read(0x8000, out.rdmaValues[p].data(),
                               out.rdmaValues[p].size(), [](Tick) {});
                  });
    }

    rack.run();
    for (std::uint32_t p = 0; p < 2; ++p)
        out.tcpBytes[p] = tcp[2 * p + 1]->bytesReceived(flows[p]);
    out.registryJson = registryJson();
    return out;
}

TEST(ClusterParallel, WireServicesOnSeparateDomainThreads)
{
    const auto t1 = wireServicesWorkload(1);
    const auto t4 = wireServicesWorkload(4);
    for (const auto *run : {&t1, &t4}) {
        for (std::uint32_t p = 0; p < 2; ++p) {
            EXPECT_EQ(run->tcpBytes[p], 200u * 1024);
            EXPECT_EQ(run->kvVerified[p], kKvOps);
            EXPECT_EQ(run->rdmaValues[p], patternFor(p));
        }
    }
    EXPECT_EQ(t1.registryJson, t4.registryJson);
}

TEST(ClusterParallel, LookaheadIsDerivedFromTopology)
{
    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    const Tick uniform = EnzianCluster::deriveLookahead(
        cfg, ClusterTopology::uniform(2, 4));

    // A topology with a long cable cannot lower the floor below the
    // intra-machine ECI path; a short one can.
    ClusterTopology fast = ClusterTopology::uniform(2, 4);
    fast.nodes[0].latency_ns = 1.0;
    const Tick floor_fast = EnzianCluster::deriveLookahead(cfg, fast);
    EXPECT_LE(floor_fast, uniform);
    EXPECT_EQ(floor_fast, units::ns(1.0));
}

TEST(ReplicatedKv, NearestReplicaReadsAndTopologyDistance)
{
    // Primary on a *far* node (5 us cable), replica on a near one:
    // reads from an unrelated node must pick the replica.
    ClusterTopology topo = ClusterTopology::uniform(3, 4);
    topo.nodes[0].latency_ns = 5000.0;
    EnzianCluster::Config cfg;
    cfg.topology = topo;
    EnzianCluster rack(cfg);

    ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1};
    kcfg.value_bytes = kValueBytes;
    ReplicatedKv kv("nearkv", rack, kcfg);

    EXPECT_EQ(kv.storeCount(), 2u);
    EXPECT_EQ(kv.nearestStore(1), 1u); // co-located replica
    EXPECT_EQ(kv.nearestStore(2), 1u); // replica beats the far primary

    const auto val = patternFor(7);
    bool put_done = false;
    kv.put(2, 7, val.data(), [&](Tick) { put_done = true; });
    rack.run();
    ASSERT_TRUE(put_done);
    EXPECT_EQ(kv.replicaAcks(), 2u);

    // Node 1 reads its own replica: no network at all.
    std::vector<std::uint8_t> got(kValueBytes);
    bool get_done = false;
    kv.get(1, 7, got.data(), [&](Tick) { get_done = true; });
    rack.run();
    ASSERT_TRUE(get_done);
    EXPECT_EQ(got, val);
    EXPECT_EQ(kv.localReads(), 1u);

    // Node 2 has no replica: remote read from the near store.
    std::fill(got.begin(), got.end(), 0);
    get_done = false;
    kv.get(2, 7, got.data(), [&](Tick) { get_done = true; });
    rack.run();
    ASSERT_TRUE(get_done);
    EXPECT_EQ(got, val);
    EXPECT_EQ(kv.remoteReads(), 1u);
}

TEST(ReplicatedKv, ConfigFromTopologyServiceLine)
{
    const auto topo = ClusterTopology::parse(
        "node ports=4\nnode ports=4\nnode ports=4\n"
        "service kind=kv node=1 "
        "params=replicas=2,placement=eci-host,slots=64,"
        "value_bytes=256,timeout_us=40\n");
    const auto svcs = topo.servicesOf("kv");
    ASSERT_EQ(svcs.size(), 1u);
    const auto cfg = ReplicatedKv::configFromService(svcs[0], topo);
    EXPECT_EQ(cfg.primary, 1u);
    ASSERT_EQ(cfg.replicas.size(), 2u);
    EXPECT_EQ(cfg.replicas[0], 2u);
    EXPECT_EQ(cfg.replicas[1], 0u);
    EXPECT_EQ(cfg.placement, "eci-host");
    EXPECT_EQ(cfg.slots, 64u);
    EXPECT_EQ(cfg.value_bytes, 256u);
    EXPECT_DOUBLE_EQ(cfg.timeout_us, 40.0);
}

TEST(ReplicatedKv, ReadYourWritesUnderRdmaRequestDrops)
{
    // enzchaos-style loss on the client's initiator: every put/get
    // pair must still read its own write thanks to timeout recovery.
    EnzianCluster::Config cfg;
    cfg.nodes = 3;
    EnzianCluster rack(cfg);

    ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1};
    kcfg.value_bytes = kValueBytes;
    kcfg.timeout_us = 50.0;
    ReplicatedKv kv("chaoskv", rack, kcfg);

    Rng rng(99);
    kv.initiator(2).setFaults(&rng, 0.2);

    constexpr std::uint64_t kOps = 16;
    std::uint64_t verified = 0;
    std::vector<std::uint8_t> got(kValueBytes);
    std::function<void(std::uint64_t)> step = [&](std::uint64_t k) {
        if (k == kOps)
            return;
        // The payload is copied at issue time, so a stack-local
        // pattern is fine.
        const auto val = patternFor(k);
        kv.put(2, k, val.data(), [&, k](Tick) {
            kv.get(2, k, got.data(), [&, k](Tick) {
                if (got == patternFor(k))
                    ++verified;
                step(k + 1);
            });
        });
    };
    step(0);
    rack.run();

    EXPECT_EQ(verified, kOps);
    EXPECT_EQ(kv.puts(), kOps);
    EXPECT_EQ(kv.gets(), kOps);
    // The fault stream actually bit, and recovery actually ran.
    EXPECT_GT(kv.initiator(2).requestsDropped(), 0u);
    EXPECT_GT(kv.initiator(2).retriesSent(), 0u);
}

/** Completion ticks, read values and registry of a pcie-host store. */
RackRun
pcieKvWorkload(std::uint32_t threads)
{
    constexpr std::uint32_t kPcieNodes = 3;
    EnzianCluster::Config cfg;
    cfg.nodes = kPcieNodes;
    cfg.threads = threads;
    EnzianCluster rack(cfg);

    ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1};
    kcfg.placement = "pcie-host";
    kcfg.value_bytes = kValueBytes;
    ReplicatedKv kv("pciekv", rack, kcfg);

    // Every node puts its keys at once, so each store's DMA engine
    // queues descriptors back to back.
    std::array<std::vector<Tick>, kPcieNodes> trace;
    for (std::uint32_t n = 0; n < kPcieNodes; ++n) {
        for (std::uint64_t k = 0; k < 4; ++k) {
            const auto val = patternFor(n * 8 + k);
            kv.put(n, n * 8 + k, val.data(),
                   [&trace, n](Tick t) { trace[n].push_back(t); });
        }
    }
    rack.run();

    // Nodes 0 and 1 read through their own DMA engine, node 2 over
    // RDMA from the nearest store.
    RackRun out;
    out.values.assign(kPcieNodes, std::vector<std::uint8_t>(kValueBytes));
    for (std::uint32_t n = 0; n < kPcieNodes; ++n) {
        rack.node(n).fpgaEventq().schedule(units::us(1000.0), [&, n]() {
            kv.get(n, ((n + 1) % kPcieNodes) * 8, out.values[n].data(),
                   [&trace, n](Tick t) { trace[n].push_back(t); });
        });
    }
    rack.run();

    for (const auto &t : trace)
        out.ticks.insert(out.ticks.end(), t.begin(), t.end());
    out.registryJson = registryJson();
    return out;
}

TEST(ReplicatedKv, PcieHostPlacementIsThreadCountInvariant)
{
    // The DMA engine's host half runs in the CPU domain, so the
    // crossing must give the same simulation at any thread count.
    const auto t1 = pcieKvWorkload(1);
    const auto t4 = pcieKvWorkload(4);
    ASSERT_EQ(t1.ticks.size(), 3u * 5u);
    EXPECT_EQ(t1.ticks, t4.ticks);
    for (std::uint32_t n = 0; n < 3; ++n)
        EXPECT_EQ(t1.values[n], patternFor(((n + 1) % 3) * 8)) << n;
    EXPECT_EQ(t1.values, t4.values);
    EXPECT_EQ(t1.registryJson, t4.registryJson);
}

TEST(ClusterRegression, TwoDisaggServersInOneProcess)
{
    // Two servers in one process, written at the same offsets, keep
    // their data apart: RDMA reads and pushdown scans both see only
    // their own node's FPGA DRAM.
    for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        EnzianCluster::Config cfg;
        cfg.nodes = 4;
        cfg.threads = threads;
        EnzianCluster rack(cfg);

        DisaggMemoryServer::Config sa;
        sa.port = rack.portOf(0);
        sa.region_size = 1ull << 20;
        DisaggMemoryServer srvA("srvA", rack.node(0).fpgaEventq(),
                                rack.network(), rack.node(0).fpgaMem(), sa);
        DisaggMemoryServer::Config sb;
        sb.port = rack.portOf(1);
        sb.region_size = 1ull << 20;
        DisaggMemoryServer srvB("srvB", rack.node(1).fpgaEventq(),
                                rack.network(), rack.node(1).fpgaMem(), sb);
        DisaggMemoryClient cliA("cliA", rack.node(2).fpgaEventq(),
                                rack.network(), rack.portOf(2), srvA);
        DisaggMemoryClient cliB("cliB", rack.node(3).fpgaEventq(),
                                rack.network(), rack.portOf(3), srvB);

        // Plain reads and writes: RDMA to the same targets.
        net::RdmaInitiator &rdmaA = cliA.rdma();
        net::RdmaInitiator &rdmaB = cliB.rdma();

        // Interleaved writes to the SAME offsets with different
        // payloads. Each client completes in its own node's domain, so
        // each gets its own flag.
        std::vector<std::uint8_t> da(4096, 0xaa), db(4096, 0xbb);
        bool wroteA = false, wroteB = false;
        rdmaA.write(0x1000, da.data(), da.size(),
                    [&](Tick) { wroteA = true; });
        rdmaB.write(0x1000, db.data(), db.size(),
                    [&](Tick) { wroteB = true; });
        rack.run();
        ASSERT_TRUE(wroteA && wroteB);

        std::vector<std::uint8_t> ra(4096), rb(4096);
        bool readA = false, readB = false;
        rdmaA.read(0x1000, ra.data(), ra.size(),
                   [&](Tick) { readA = true; });
        rdmaB.read(0x1000, rb.data(), rb.size(),
                   [&](Tick) { readB = true; });
        rack.run();
        ASSERT_TRUE(readA && readB);
        EXPECT_EQ(ra, da);
        EXPECT_EQ(rb, db);

        // Each server's scan matches every row of its own payload.
        std::vector<std::uint8_t> ma, mb;
        auto scan = [](DisaggMemoryClient &cli, std::uint8_t fill,
                       std::vector<std::uint8_t> &out) {
            Predicate p;
            std::memset(&p.operand, fill, sizeof(p.operand));
            cli.scanFilter(0x1000, 16, 4096 / 16, p,
                           [&out](Tick, std::vector<std::uint8_t> m,
                                  std::uint64_t) { out = std::move(m); });
        };
        scan(cliA, 0xaa, ma);
        scan(cliB, 0xbb, mb);
        rack.run();
        EXPECT_EQ(ma, da);
        EXPECT_EQ(mb, db);
    }
}

TEST(ClusterRegression, TwoCoherenceBridgesInOneProcess)
{
    // Symmetric bridging: each node exports its CPU memory to the
    // other. Two targets + two sources share the process; their ops
    // must not cross.
    for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        EnzianCluster::Config cfg;
        cfg.nodes = 2;
        cfg.threads = threads;
        EnzianCluster rack(cfg);
        auto &a = rack.node(0);
        auto &b = rack.node(1);
        const Addr window = mem::AddressMap::fpgaDramBase + (128ull << 20);

        EciBridgeTarget::Config ta;
        ta.port = rack.portOf(0, 0);
        EciBridgeTarget targetA("ta", a.fpgaEventq(), rack.network(),
                                a.fpgaRemote(), ta);
        EciBridgeTarget::Config tb;
        tb.port = rack.portOf(1, 0);
        EciBridgeTarget targetB("tb", b.fpgaEventq(), rack.network(),
                                b.fpgaRemote(), tb);

        eci::DramLineSource fbA(a.fpgaMem(), a.map());
        eci::DramLineSource fbB(b.fpgaMem(), b.map());
        EciBridgeSource::Config scfg;
        scfg.window_base = window;
        scfg.window_size = 16ull << 20;
        scfg.port = rack.portOf(0, 1);
        EciBridgeSource srcOnA("sa", a.fpgaEventq(), rack.network(), fbA,
                               targetB, scfg);
        scfg.port = rack.portOf(1, 1);
        EciBridgeSource srcOnB("sb", b.fpgaEventq(), rack.network(), fbB,
                               targetA, scfg);
        a.fpgaHome().setLineSource(&srcOnA);
        b.fpgaHome().setLineSource(&srcOnB);

        std::vector<std::uint8_t> da(cache::lineSize, 0x0a);
        std::vector<std::uint8_t> db(cache::lineSize, 0x0b);
        a.cpuMem().store().write(0x2000, da.data(), da.size());
        b.cpuMem().store().write(0x2000, db.data(), db.size());

        std::uint8_t fromB[cache::lineSize] = {};
        std::uint8_t fromA[cache::lineSize] = {};
        // Each read completes in its own node's CPU domain.
        bool doneA = false, doneB = false;
        a.cpuRemote().readLine(window + 0x2000, fromB,
                               [&](Tick) { doneA = true; });
        b.cpuRemote().readLine(window + 0x2000, fromA,
                               [&](Tick) { doneB = true; });
        rack.run();
        ASSERT_TRUE(doneA && doneB);
        EXPECT_EQ(std::memcmp(fromB, db.data(), cache::lineSize), 0);
        EXPECT_EQ(std::memcmp(fromA, da.data(), cache::lineSize), 0);
        EXPECT_EQ(srcOnA.linesBridged(), 1u);
        EXPECT_EQ(srcOnB.linesBridged(), 1u);
    }
}

/** Ticks, lines and registry of bridged traffic over a lossy RDMA. */
RackRun
lossyBridgeWorkload(std::uint32_t threads)
{
    constexpr std::uint32_t kLines = 8;
    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    cfg.threads = threads;
    EnzianCluster rack(cfg);
    auto &a = rack.node(0);
    auto &b = rack.node(1);
    const Addr window = mem::AddressMap::fpgaDramBase + (128ull << 20);

    EciBridgeTarget::Config tcfg;
    tcfg.port = rack.portOf(1);
    EciBridgeTarget target("lossy.target", b.fpgaEventq(), rack.network(),
                           b.fpgaRemote(), tcfg);
    eci::DramLineSource fallback(a.fpgaMem(), a.map());
    EciBridgeSource::Config scfg;
    scfg.port = rack.portOf(0);
    scfg.window_base = window;
    scfg.window_size = 16ull << 20;
    EciBridgeSource source("lossy.source", a.fpgaEventq(), rack.network(),
                           fallback, target, scfg);
    a.fpgaHome().setLineSource(&source);

    // Requests are lost on A's FPGA domain and responses on B's, each
    // drawing from a stream only that domain touches.
    Rng reqRng(7), rspRng(11);
    source.rdma().enableRecovery(20.0);
    source.rdma().setFaults(&reqRng, 0.3);
    target.rdma().setFaults(&rspRng, 0.3);

    // A reads kLines lines of B's memory, then dirties kLines more and
    // flushes them back. Every completion runs in A's CPU domain.
    RackRun out;
    out.values.assign(kLines, std::vector<std::uint8_t>(cache::lineSize));
    for (std::uint32_t i = 0; i < kLines; ++i) {
        b.cpuMem().store().write(i * cache::lineSize, patternFor(i).data(),
                                 cache::lineSize);
        a.cpuRemote().readLine(window + i * cache::lineSize,
                               out.values[i].data(),
                               [&](Tick t) { out.ticks.push_back(t); });
    }
    rack.run();
    const Addr dirty = kLines * cache::lineSize;
    for (std::uint32_t i = 0; i < kLines; ++i)
        a.cpuRemote().writeLine(window + dirty + i * cache::lineSize,
                                patternFor(100 + i).data(),
                                [&](Tick t) { out.ticks.push_back(t); });
    rack.run();
    a.cpuRemote().flushAll([&](Tick t) { out.ticks.push_back(t); });
    rack.run();

    for (std::uint32_t i = 0; i < kLines; ++i) {
        std::vector<std::uint8_t> line(cache::lineSize);
        b.cpuMem().store().read(dirty + i * cache::lineSize, line.data(),
                                line.size());
        out.values.push_back(std::move(line));
    }
    // The fault streams bit and recovery ran.
    EXPECT_GT(source.rdma().requestsDropped(), 0u);
    EXPECT_GT(target.rdma().responsesDropped(), 0u);
    EXPECT_GT(source.rdma().retriesSent(), 0u);
    EXPECT_EQ(source.linesBridged(), 3u * kLines);
    out.registryJson = registryJson();
    return out;
}

TEST(ClusterRegression, BridgedTrafficSurvivesRdmaLoss)
{
    // The bridge rides RDMA, so RDMA's timeout recovery carries
    // bridged refills and writebacks through request and response
    // loss, with the same simulation at any thread count.
    const auto t1 = lossyBridgeWorkload(1);
    const auto t4 = lossyBridgeWorkload(4);
    ASSERT_EQ(t1.ticks.size(), 8u + 8u + 1u);
    ASSERT_EQ(t1.values.size(), 16u);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(t1.values[i], patternFor(i)) << i;
        EXPECT_EQ(t1.values[8 + i], patternFor(100 + i)) << i;
    }
    EXPECT_EQ(t1.ticks, t4.ticks);
    EXPECT_EQ(t1.values, t4.values);
    EXPECT_EQ(t1.registryJson, t4.registryJson);
}

/** Ticks, values and registry of KV and pushdown over a lossy RDMA. */
RackRun
lossyKvAndScanWorkload(std::uint32_t threads)
{
    constexpr std::uint64_t kOps = 24;
    constexpr std::uint32_t kRow = 16;
    constexpr std::uint64_t kRows = 512;
    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    cfg.threads = threads;
    EnzianCluster rack(cfg);
    auto &mem = rack.node(0);
    auto &compute = rack.node(1);

    // The KV store and the disaggregated memory both live on node 0,
    // each behind its own RDMA target; their clients are on node 1.
    // The store's table sits above the exported region.
    accel::KvStoreServer::Config kcfg;
    kcfg.port = rack.portOf(0, 0);
    kcfg.table_base = 1ull << 20;
    kcfg.slots = 1024;
    accel::KvStoreServer kvs("lossy.kvs", mem.fpgaEventq(), rack.network(),
                             mem.fpgaMem(), kcfg);
    accel::KvClient kvc("lossy.kvc", compute.fpgaEventq(), rack.network(),
                        rack.portOf(1, 0), kcfg.port);
    DisaggMemoryServer::Config scfg;
    scfg.port = rack.portOf(0, 1);
    scfg.region_size = 1ull << 20;
    DisaggMemoryServer dms("lossy.dms", mem.fpgaEventq(), rack.network(),
                           mem.fpgaMem(), scfg);
    DisaggMemoryClient dmc("lossy.dmc", compute.fpgaEventq(),
                           rack.network(), rack.portOf(1, 1), dms);

    // Requests are lost on node 1's FPGA domain and responses on node
    // 0's, each drawing from a stream only its own object touches.
    Rng kvReqRng(3), kvRspRng(5), scanReqRng(7), scanRspRng(11);
    kvc.rdma().enableRecovery(20.0);
    kvc.rdma().setFaults(&kvReqRng, 0.3);
    kvs.rdma().setFaults(&kvRspRng, 0.3);
    dmc.rdma().enableRecovery(20.0);
    dmc.rdma().setFaults(&scanReqRng, 0.3);
    dms.rdma().setFaults(&scanRspRng, 0.3);

    // Put-then-get rounds on distinct keys, checked against a
    // reference map. Every completion runs in node 1's FPGA domain.
    RackRun out;
    std::map<std::uint64_t, std::vector<std::uint8_t>> ref;
    std::function<void(std::uint64_t)> step = [&](std::uint64_t i) {
        if (i == kOps)
            return;
        const std::uint64_t key = 500 + i;
        ref[key] = kvValue(0, static_cast<std::uint32_t>(i));
        const auto &value = ref[key];
        kvc.put(key, value.data(), static_cast<std::uint32_t>(value.size()),
                [&, i, key](Tick t, bool ok) {
                    EXPECT_TRUE(ok) << key;
                    out.ticks.push_back(t);
                    kvc.get(key, [&, i, key](Tick t2, bool found,
                                             std::vector<std::uint8_t> v) {
                        EXPECT_TRUE(found) << key;
                        EXPECT_EQ(v, ref[key]) << key;
                        out.ticks.push_back(t2);
                        out.values.push_back(std::move(v));
                        step(i + 1);
                    });
                });
    };
    step(0);
    rack.run();

    // One pushdown scan over a table of {key, value} rows.
    std::vector<std::uint8_t> table(kRows * kRow);
    for (std::uint64_t k = 0; k < kRows; ++k) {
        std::memcpy(&table[k * kRow], &k, 8);
        const std::uint64_t v = ~k;
        std::memcpy(&table[k * kRow + 8], &v, 8);
    }
    mem.fpgaMem().store().write(0x4000, table.data(), table.size());
    Predicate pred;
    pred.op = FilterOp::Lt;
    pred.operand = kRows / 8;
    dmc.scanFilter(0x4000, kRow, kRows, pred,
                   [&](Tick t, std::vector<std::uint8_t> rows,
                       std::uint64_t) {
                       out.ticks.push_back(t);
                       out.values.push_back(std::move(rows));
                   });
    rack.run();
    EXPECT_EQ(out.values.size(), kOps + 1);
    if (out.values.size() == kOps + 1) {
        EXPECT_EQ(out.values.back(),
                  std::vector<std::uint8_t>(
                      table.begin(), table.begin() + kRows / 8 * kRow));
    }

    // The fault streams bit and recovery ran, for the scan too.
    EXPECT_GT(kvc.rdma().requestsDropped(), 0u);
    EXPECT_GT(kvs.rdma().responsesDropped(), 0u);
    EXPECT_GT(kvc.rdma().retriesSent(), 0u);
    EXPECT_GT(dmc.rdma().requestsDropped() + dms.rdma().responsesDropped(),
              0u);
    EXPECT_GT(dmc.rdma().retriesSent(), 0u);
    out.registryJson = registryJson();

    // The final table, read in the fabric, holds exactly the puts.
    for (const auto &[key, value] : ref) {
        const auto got = kvs.get(key);
        EXPECT_TRUE(got.has_value()) << key;
        if (got) {
            EXPECT_EQ(*got, value) << key;
        }
    }
    EXPECT_EQ(kvs.occupied(), ref.size());
    return out;
}

TEST(ClusterRegression, KvAndPushdownSurviveRdmaLoss)
{
    // KV requests and the pushdown scan are two-sided RDMA requests,
    // so RDMA's timeout recovery carries them through request and
    // response loss, with the same simulation at any thread count.
    const auto t1 = lossyKvAndScanWorkload(1);
    const auto t4 = lossyKvAndScanWorkload(4);
    ASSERT_EQ(t1.ticks.size(), 2u * 24u + 1u);
    EXPECT_EQ(t1.ticks, t4.ticks);
    EXPECT_EQ(t1.values, t4.values);
    EXPECT_EQ(t1.registryJson, t4.registryJson);
}

TEST(ClusterRegressionDeath, FrameForUnknownPortIsFatal)
{
    // A frame addressed past the last port must stop the run, not
    // vanish or land on some other port.
    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    EnzianCluster rack(cfg);
    net::Switch &sw = rack.network();
    EXPECT_DEATH(
        {
            sw.sendFrom(rack.portOf(0), net::Frame{64, sw.portCount(), {}});
            rack.run();
        },
        "unknown port");
}

TEST(ClusterRegressionDeath, KvTableOverDisaggRegionIsFatal)
{
    // The KV table (from FPGA DRAM offset 0 by default) and the
    // exported region (always from offset 0) on one node would
    // overwrite each other's bytes: the second server dies naming
    // both.
    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    EnzianCluster rack(cfg);
    auto &node = rack.node(0);
    accel::KvStoreServer::Config kcfg;
    kcfg.port = rack.portOf(0, 0);
    kcfg.slots = 1024;
    accel::KvStoreServer kvs("kvs", node.fpgaEventq(), rack.network(),
                             node.fpgaMem(), kcfg);
    DisaggMemoryServer::Config scfg;
    scfg.port = rack.portOf(0, 1);
    scfg.region_size = 1ull << 20;
    EXPECT_EXIT(DisaggMemoryServer("dms", node.fpgaEventq(),
                                   rack.network(), node.fpgaMem(), scfg),
                ::testing::ExitedWithCode(1),
                "'dms' \\[0, 0x100000\\) overlaps 'kvs' "
                "\\[0, 0x10000\\)");
}

TEST(ClusterRegressionDeath, OutOfBoundsPredicateIsFatal)
{
    // The pushdown filter reads 8 bytes at column_offset; an offset
    // past row_bytes-8 used to memcpy beyond the row (ASan-visible),
    // now it dies at request registration.
    Predicate p;
    p.column_offset = 9;
    EXPECT_DEATH(p.validate(16), "predicate");
    p.column_offset = 0;
    EXPECT_DEATH(p.validate(4), "predicate"); // row below one word
    p.validate(8);                            // exact fit is legal

    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    EnzianCluster rack(cfg);
    DisaggMemoryServer::Config scfg;
    scfg.port = rack.portOf(0);
    scfg.region_size = 1ull << 20;
    DisaggMemoryServer server("srv", rack.node(0).fpgaEventq(),
                              rack.network(), rack.node(0).fpgaMem(),
                              scfg);
    DisaggMemoryClient client("cli", rack.node(1).fpgaEventq(),
                              rack.network(), rack.portOf(1), server);
    Predicate bad;
    bad.column_offset = 12; // rows are 16 B: would read [12, 20)
    EXPECT_DEATH(
        client.scanFilter(0, 16, 4, bad,
                          [](Tick, std::vector<std::uint8_t>,
                             std::uint64_t) {}),
        "predicate");
}

} // namespace
} // namespace enzian::cluster
