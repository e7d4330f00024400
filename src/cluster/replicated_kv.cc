/**
 * @file
 * Replicated KV implementation.
 *
 * Statistics note: puts/gets may be issued from any machine's timing
 * domain, so the counters are guarded by a mutex. They are pure
 * commutative sums — the final values (and the exported registry
 * JSON) are identical for any thread count.
 */

#include "cluster/replicated_kv.hh"

#include <algorithm>

#include "base/logging.hh"
#include "cache/moesi.hh"
#include "obs/registry.hh"

namespace enzian::cluster {

namespace {

/** Device-DRAM staging window for the pcie-host path. */
constexpr Addr pcieStagingBase = 192ull << 20;

} // namespace

ReplicatedKv::ReplicatedKv(std::string name, EnzianCluster &cluster,
                           const Config &cfg)
    : cluster_(cluster), cfg_(cfg), stats_(std::move(name))
{
    if (cfg_.slots == 0 || cfg_.value_bytes == 0)
        fatal("kv '%s': empty slot geometry", stats_.name().c_str());
    if (cfg_.placement == "eci-host" &&
        (cfg_.value_bytes % cache::lineSize != 0 ||
         cfg_.region_base % cache::lineSize != 0))
        fatal("kv '%s': eci-host placement needs line-aligned slots",
              stats_.name().c_str());

    const std::uint64_t region =
        cfg_.region_base + cfg_.slots * cfg_.value_bytes;
    const auto &node_cfg = cluster_.config().node;
    const std::uint64_t capacity = cfg_.placement == "dram"
                                       ? node_cfg.fpga_dram_bytes
                                       : node_cfg.cpu_dram_bytes;
    if (region > capacity)
        fatal("kv '%s': %llu slot bytes exceed the %s capacity",
              stats_.name().c_str(),
              static_cast<unsigned long long>(region),
              cfg_.placement.c_str());

    std::vector<std::uint32_t> store_nodes;
    store_nodes.push_back(cfg_.primary);
    for (std::uint32_t r : cfg_.replicas) {
        if (r == cfg_.primary ||
            std::find(store_nodes.begin(), store_nodes.end(), r) !=
                store_nodes.end())
            fatal("kv '%s': node %u replicated twice",
                  stats_.name().c_str(), r);
        store_nodes.push_back(r);
    }
    for (std::uint32_t n : store_nodes) {
        if (n >= cluster_.nodeCount())
            fatal("kv '%s': store node %u of %u",
                  stats_.name().c_str(), n, cluster_.nodeCount());
        stores_.push_back(makeStore(n));
    }

    for (std::uint32_t i = 0; i < cluster_.nodeCount(); ++i) {
        auto &m = cluster_.node(i);
        initiators_.push_back(std::make_unique<net::RdmaInitiator>(
            stats_.name() + ".client" + std::to_string(i),
            m.fpgaEventq(), cluster_.network(),
            cluster_.portOf(i, cfg_.client_link), stores_[0]->port));
        if (cfg_.timeout_us > 0.0)
            initiators_.back()->enableRecovery(cfg_.timeout_us,
                                               cfg_.max_retries);
    }

    stats_.addCounter("puts", &puts_);
    stats_.addCounter("gets", &gets_);
    stats_.addCounter("replica_acks", &replicaAcks_);
    stats_.addCounter("local_reads", &localReads_);
    stats_.addCounter("remote_reads", &remoteReads_);
    obs::Registry::global().add(&stats_);
}

ReplicatedKv::~ReplicatedKv()
{
    obs::Registry::global().remove(&stats_);
}

std::unique_ptr<ReplicatedKv::Store>
ReplicatedKv::makeStore(std::uint32_t node)
{
    auto st = std::make_unique<Store>();
    st->node = node;
    st->port = cluster_.portOf(node, cfg_.target_link);
    auto &m = cluster_.node(node);
    const std::string base =
        stats_.name() + ".store" + std::to_string(node);

    if (cfg_.placement == "dram") {
        st->path = std::make_unique<net::DirectDramPath>(m.fpgaMem());
    } else if (cfg_.placement == "eci-host") {
        // Coherent with the host CPU's L2 by construction.
        st->path =
            std::make_unique<net::EciHostPath>(m.fpgaRemote(), 0);
    } else if (cfg_.placement == "pcie-host") {
        st->pcieLink = std::make_unique<pcie::PcieLink>(
            base + ".pcie", m.fpgaEventq(),
            pcie::PcieLink::Config{});
        st->pcieDma = std::make_unique<pcie::DmaEngine>(
            base + ".dma", m.fpgaEventq(), *st->pcieLink, m.cpuMem(),
            m.fpgaMem(), pcie::DmaEngine::Config{});
        // Host memory is the CPU socket's: the DMA engine's host half
        // runs in the CPU domain.
        st->pcieDma->bindDomains(*cluster_.scheduler(), *m.fpgaDomain(),
                                 *m.cpuDomain());
        st->path = std::make_unique<net::PcieHostPath>(
            *st->pcieDma, 0, pcieStagingBase);
    } else {
        fatal("kv '%s': unknown placement '%s'", stats_.name().c_str(),
              cfg_.placement.c_str());
    }

    net::RdmaTarget::Config tcfg;
    tcfg.port = st->port;
    st->target = std::make_unique<net::RdmaTarget>(
        base, m.fpgaEventq(), cluster_.network(), *st->path, tcfg);
    return st;
}

ReplicatedKv::Config
ReplicatedKv::configFromService(const ServiceDesc &svc,
                                const ClusterTopology &topo)
{
    Config cfg;
    cfg.primary = svc.node;
    if (const std::string v = serviceParam(svc, "replicas"); !v.empty()) {
        const std::uint32_t k = static_cast<std::uint32_t>(
            std::min<unsigned long>(std::stoul(v),
                                    topo.nodeCount() - 1));
        for (std::uint32_t i = 1; i <= k; ++i)
            cfg.replicas.push_back((svc.node + i) % topo.nodeCount());
    }
    if (const std::string v = serviceParam(svc, "placement"); !v.empty())
        cfg.placement = v;
    if (const std::string v = serviceParam(svc, "slots"); !v.empty())
        cfg.slots = std::stoull(v);
    if (const std::string v = serviceParam(svc, "value_bytes");
        !v.empty())
        cfg.value_bytes = static_cast<std::uint32_t>(std::stoul(v));
    if (const std::string v = serviceParam(svc, "timeout_us"); !v.empty())
        cfg.timeout_us = std::stod(v);
    return cfg;
}

Addr
ReplicatedKv::slotOffset(std::uint64_t key) const
{
    return cfg_.region_base + (key % cfg_.slots) * cfg_.value_bytes;
}

std::uint32_t
ReplicatedKv::nearestStore(std::uint32_t client_node) const
{
    const double default_ns =
        cluster_.config().network.port.latency_ns;
    std::uint32_t best = 0;
    double best_d = cluster_.topology().distanceNs(
        client_node, stores_[0]->node, default_ns);
    for (std::uint32_t s = 1; s < stores_.size(); ++s) {
        const double d = cluster_.topology().distanceNs(
            client_node, stores_[s]->node, default_ns);
        if (d < best_d) {
            best = s;
            best_d = d;
        }
    }
    return best;
}

void
ReplicatedKv::put(std::uint32_t client_node, std::uint64_t key,
                  const std::uint8_t *value, Done done)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        puts_.inc();
    }
    const Addr off = slotOffset(key);
    auto &ini = *initiators_.at(client_node);

    // Per-replica ack tracking: the put is durable everywhere only
    // once the LAST store acknowledged.
    struct Tracker
    {
        std::vector<bool> acked;
        std::size_t remaining = 0;
        Tick last = 0;
        Done done;
    };
    auto tr = std::make_shared<Tracker>();
    tr->acked.assign(stores_.size(), false);
    tr->remaining = stores_.size();
    tr->done = std::move(done);

    for (std::uint32_t s = 0; s < stores_.size(); ++s) {
        ini.writeTo(stores_[s]->port, off, value, cfg_.value_bytes,
                    [this, tr, s](Tick t) {
                        ENZIAN_ASSERT(!tr->acked[s],
                                      "duplicate ack from store %u", s);
                        tr->acked[s] = true;
                        {
                            std::lock_guard<std::mutex> lk(mu_);
                            replicaAcks_.inc();
                        }
                        tr->last = std::max(tr->last, t);
                        if (--tr->remaining == 0)
                            tr->done(tr->last);
                    });
    }
}

void
ReplicatedKv::get(std::uint32_t client_node, std::uint64_t key,
                  std::uint8_t *out, Done done)
{
    const Addr off = slotOffset(key);
    const std::uint32_t s = nearestStore(client_node);
    Store &st = *stores_[s];
    if (st.node == client_node) {
        // Co-located replica: straight through the memory path.
        {
            std::lock_guard<std::mutex> lk(mu_);
            gets_.inc();
            localReads_.inc();
        }
        st.path->read(off, out, cfg_.value_bytes, std::move(done));
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        gets_.inc();
        remoteReads_.inc();
    }
    initiators_.at(client_node)
        ->readFrom(st.port, off, out, cfg_.value_bytes,
                   std::move(done));
}

} // namespace enzian::cluster
