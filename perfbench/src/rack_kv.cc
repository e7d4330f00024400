/**
 * @file
 * rack_kv: a 4-node EnzianCluster on the DomainScheduler (2 worker
 * threads by default) serving a ReplicatedKv (primary + 1 replica,
 * values in FPGA DRAM). Every node runs a closed loop in simulated
 * time: it keeps a window of get-mostly operations in flight and
 * issues its next operation from the completion of the previous one.
 * Puts wait for every replica (all-ack). Each get must return a value
 * some put wrote for that key; the store is filled once at setup.
 */

#include <memory>

#include "bench.hh"
#include "cluster/enzian_cluster.hh"
#include "cluster/replicated_kv.hh"
#include "sim/domain_scheduler.hh"

namespace perfbench {

using namespace enzian;
using namespace enzian::cluster;

namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kSlots = 1024;
constexpr std::uint32_t kValueBytes = 128;
constexpr std::uint64_t kOpsPerNode = 6000;
constexpr double kPutFrac = 0.1;
constexpr std::uint32_t kWindow = 8;

/** The value a put of version @p ver writes under @p key. */
void
valueOf(std::uint64_t key, std::uint64_t ver, std::uint8_t *out)
{
    std::memcpy(out, &key, 8);
    std::memcpy(out + 8, &ver, 8);
    fillRandom(key * 0x9e3779b97f4a7c15ull ^ ver, out, 16, kValueBytes);
}

struct KvOp
{
    std::uint64_t key;
    /** Version written (puts); the value bytes live in `values`. */
    std::uint64_t ver;
    bool put;
};

/** Generated inputs: per-node op lists and each key's versions. */
struct Inputs
{
    std::vector<std::vector<KvOp>> ops; // [node]
    std::vector<std::vector<std::uint8_t>> values; // [node], puts only
    std::vector<std::vector<std::uint64_t>> versions; // [key]
};

Inputs
generate(std::uint64_t seed)
{
    Inputs in;
    in.ops.resize(kNodes);
    in.values.resize(kNodes);
    in.versions.resize(kSlots, std::vector<std::uint64_t>{0});
    Rng rng(subSeed(seed, 21));
    std::uint64_t next_ver = 1;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
        for (std::uint64_t i = 0; i < kOpsPerNode; ++i) {
            KvOp op{rng.below(kSlots), 0, rng.unit() < kPutFrac};
            if (op.put) {
                op.ver = next_ver++;
                in.versions[op.key].push_back(op.ver);
                in.values[n].resize(in.values[n].size() + kValueBytes);
                valueOf(op.key, op.ver,
                        &in.values[n][in.values[n].size() - kValueBytes]);
            }
            in.ops[n].push_back(op);
        }
    }
    return in;
}

/** A value read for @p key is one some put (or the fill) wrote. */
bool
validValue(const Inputs &in, std::uint64_t key, const std::uint8_t *v)
{
    std::uint64_t k = 0, ver = 0;
    std::memcpy(&k, v, 8);
    std::memcpy(&ver, v + 8, 8);
    if (k != key)
        return false;
    const auto &vers = in.versions[key];
    if (std::find(vers.begin(), vers.end(), ver) == vers.end())
        return false;
    std::uint8_t want[kValueBytes];
    valueOf(key, ver, want);
    return std::memcmp(want, v, kValueBytes) == 0;
}

/**
 * One node's closed loop. Touched only from that node's FPGA domain
 * while the rack runs, so nodes never share mutable state.
 */
struct alignas(64) NodeLoop
{
    std::uint32_t node = 0;
    const std::vector<KvOp> *ops = nullptr;
    const std::uint8_t *values = nullptr;
    std::vector<std::uint64_t> valueIndex; // op -> offset in values
    std::uint64_t next = 0;
    std::uint64_t completed = 0;
    std::uint64_t bad = 0;
    std::vector<std::uint8_t> bufs; // one get buffer per window slot
    std::vector<Tick> putLat, getLat;
};

/** Runs one round of every node's loop on the rack. */
class KvDriver
{
  public:
    KvDriver(EnzianCluster &rack, ReplicatedKv &kv, const Inputs &in)
        : rack_(rack), kv_(kv), in_(in), loops_(kNodes)
    {
        for (std::uint32_t n = 0; n < kNodes; ++n) {
            NodeLoop &l = loops_[n];
            l.node = n;
            l.ops = &in.ops[n];
            l.values = in.values[n].data();
            l.bufs.assign(kWindow * kValueBytes, 0);
            std::uint64_t off = 0;
            for (const KvOp &op : in.ops[n]) {
                l.valueIndex.push_back(off);
                off += op.put ? kValueBytes : 0;
            }
        }
    }

    /** One round: every node runs its op list once. */
    void
    round()
    {
        // Start at a fixed offset past the time every domain reached,
        // so the schedule is the same at any thread count.
        const Tick start = rack_.scheduler()->now() + units::us(1.0);
        for (NodeLoop &l : loops_) {
            l.next = 0;
            l.completed = 0;
            l.bad = 0;
            l.putLat.clear();
            l.getLat.clear();
            rack_.node(l.node).fpgaEventq().schedule(start, [this, &l]() {
                for (std::uint32_t s = 0; s < kWindow; ++s)
                    issue(l, s);
            });
        }
    }

    const std::vector<NodeLoop> &loops() const { return loops_; }

  private:
    void
    issue(NodeLoop &l, std::uint32_t slot)
    {
        if (l.next >= l.ops->size())
            return;
        const std::uint64_t i = l.next++;
        const KvOp &op = (*l.ops)[i];
        const Tick t0 = rack_.node(l.node).fpgaEventq().now();
        Span s(SpanKind::KvIssue);
        if (op.put) {
            kv_.put(l.node, op.key, l.values + l.valueIndex[i],
                    [this, &l, slot, t0](Tick t) {
                        ++l.completed;
                        l.putLat.push_back(t - t0);
                        issue(l, slot);
                    });
        } else {
            std::uint8_t *buf = &l.bufs[slot * kValueBytes];
            kv_.get(l.node, op.key, buf,
                    [this, &l, slot, t0, buf, key = op.key](Tick t) {
                        ++l.completed;
                        l.getLat.push_back(t - t0);
                        if (!validValue(in_, key, buf))
                            ++l.bad;
                        issue(l, slot);
                    });
        }
    }

    EnzianCluster &rack_;
    ReplicatedKv &kv_;
    const Inputs &in_;
    std::vector<NodeLoop> loops_;
};

/** Nearest-rank quantile of simulated latencies, in microseconds. */
double
quantileUs(std::vector<Tick> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return units::toMicros(v[i]);
}

} // namespace

Result
runRackKv(const Options &opts)
{
    Result res;
    Inputs in;
    std::unique_ptr<EnzianCluster> rack;
    std::unique_ptr<ReplicatedKv> kv;

    // Setup: inputs, the rack, the store, and one put per key.
    runSetup(opts, res, [&]() {
        if (rack) {
            Span s(SpanKind::PlatformTeardown);
            kv.reset();
            rack.reset();
        }
        in = generate(opts.seed);
        {
            Span s(SpanKind::PlatformBuild);
            EnzianCluster::Config cfg;
            cfg.nodes = kNodes;
            cfg.threads = opts.threads;
            cfg.adaptive_epochs = true;
            rack = std::make_unique<EnzianCluster>(cfg);
            ReplicatedKv::Config kcfg;
            kcfg.primary = 0;
            kcfg.replicas = {1};
            kcfg.placement = "dram";
            kcfg.slots = kSlots;
            kcfg.value_bytes = kValueBytes;
            kv = std::make_unique<ReplicatedKv>("benchkv", *rack, kcfg);
        }
        std::vector<std::uint8_t> fill(kSlots * kValueBytes);
        for (std::uint64_t k = 0; k < kSlots; ++k) {
            valueOf(k, 0, &fill[k * kValueBytes]);
            kv->put(static_cast<std::uint32_t>(k % kNodes), k,
                    &fill[k * kValueBytes], [](Tick) {});
        }
        Span s(SpanKind::SimRun);
        rack->run();
    });

    KvDriver drv(*rack, *kv, in);
    Counters counters;
    std::vector<double> barrier_ms, barrier_frac;
    timedRounds(opts, res, [&](bool digest_round) {
        const obs::Snapshot before =
            digest_round ? obs::Registry::global().snapshot()
                         : obs::Snapshot{};
        const std::uint64_t puts0 = kv->puts(), gets0 = kv->gets();
        const std::uint64_t local0 = kv->localReads();
        const std::uint64_t b0 = rack->scheduler()->barrierWallNs();
        const auto t0 = Clock::now();
        drv.round();
        std::uint64_t events = 0;
        {
            Span s(SpanKind::SimRun);
            events = rack->run();
        }
        const double wall_ms = secondsSince(t0) * 1e3;
        const double b_ms = static_cast<double>(
                                rack->scheduler()->barrierWallNs() - b0) /
                            1e6;

        std::uint64_t ops = 0;
        std::vector<Tick> put_lat, get_lat;
        for (const NodeLoop &l : drv.loops()) {
            ops += l.completed;
            res.attempted += l.ops->size();
            res.failed += l.ops->size() - l.completed + l.bad;
            put_lat.insert(put_lat.end(), l.putLat.begin(), l.putLat.end());
            get_lat.insert(get_lat.end(), l.getLat.begin(), l.getLat.end());
        }
        if (!digest_round) {
            barrier_ms.push_back(b_ms);
            barrier_frac.push_back(b_ms / wall_ms);
            return RoundOut{ops, events};
        }

        const obs::Snapshot delta =
            obs::diff(obs::Registry::global().snapshot(), before);
        counters.absorb(delta);
        counters.report(res.layer, ops);
        res.digest.snapshot(delta);
        for (const NodeLoop &l : drv.loops()) {
            for (Tick t : l.putLat)
                res.digest.u64(t);
            for (Tick t : l.getLat)
                res.digest.u64(t);
        }
        const double gets = static_cast<double>(kv->gets() - gets0);
        res.layer["cluster.kv_puts"] =
            static_cast<double>(kv->puts() - puts0);
        res.layer["cluster.kv_gets"] = gets;
        res.layer["cluster.kv_local_read_ratio"] =
            gets > 0.0 ? static_cast<double>(kv->localReads() - local0) /
                             gets
                       : 0.0;
        res.layer["cluster.kv_put_sim_us_p50"] = quantileUs(put_lat, 0.50);
        res.layer["cluster.kv_put_sim_us_p99"] = quantileUs(put_lat, 0.99);
        res.layer["cluster.kv_get_sim_us_p50"] = quantileUs(get_lat, 0.50);
        res.layer["cluster.kv_get_sim_us_p99"] = quantileUs(get_lat, 0.99);
        res.layer["sim.events"] = static_cast<double>(events);
        res.layer["sim.events_per_op"] =
            static_cast<double>(events) / static_cast<double>(ops);
        return RoundOut{ops, events};
    });
    res.layer["platform.builds"] = 0.0;
    res.layer["sim.barrier_ms"] = median(barrier_ms);
    res.layer["sim.barrier_frac"] = median(barrier_frac);
    timeExport(opts, res);

    Span s(SpanKind::PlatformTeardown);
    kv.reset();
    rack.reset();
    return res;
}

} // namespace perfbench
