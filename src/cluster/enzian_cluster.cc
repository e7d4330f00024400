/**
 * @file
 * Cluster composition.
 */

#include "cluster/enzian_cluster.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::cluster {

EnzianCluster::Config::Config()
{
    network.port = platform::params::eth100Config();
    node.cpu_dram_bytes = 256ull << 20;
    node.fpga_dram_bytes = 256ull << 20;
}

net::Switch::Config
EnzianCluster::resolveNetwork(const Config &cfg,
                              const ClusterTopology &topo)
{
    net::Switch::Config net = cfg.network;
    if (net.port_latency_ns.empty()) {
        net.port_latency_ns.resize(topo.totalPorts(), 0.0);
        for (std::uint32_t i = 0; i < topo.nodeCount(); ++i) {
            for (std::uint32_t l = 0; l < topo.nodes[i].ports; ++l)
                net.port_latency_ns[topo.portOf(i, l)] =
                    topo.nodes[i].latency_ns;
        }
    }
    return net;
}

Tick
EnzianCluster::deriveLookahead(const Config &cfg,
                               const ClusterTopology &topo)
{
    // The epoch may never outrun the fastest cross-domain path in the
    // rack: intra-machine that is the ECI engine+wire+engine floor,
    // cross-machine the shortest cable's Ethernet latency.
    const net::Switch::Config net = resolveNetwork(cfg, topo);
    return std::min(
        eci::EciLink::minCrossLatency(cfg.node.link),
        net::Switch::minCrossLatency(net, topo.totalPorts()));
}

EnzianCluster::EnzianCluster(const Config &cfg)
    : cfg_(cfg), topo_(cfg.topology.nodes.empty()
                           ? ClusterTopology::uniform(cfg.nodes,
                                                      cfg.ports_per_node)
                           : cfg.topology)
{
    topo_.validate();
    const net::Switch::Config net = resolveNetwork(cfg_, topo_);

    sim::DomainScheduler::Options opts;
    opts.adaptive = cfg_.adaptive_epochs;
    sched_ = std::make_unique<sim::DomainScheduler>(
        topo_.name + ".sched", deriveLookahead(cfg_, topo_),
        cfg_.threads, opts);
    // Domain 0 is the switch fabric; machines add cpu/fpga pairs.
    sim::TimingDomain &net_domain =
        sched_->addDomain(topo_.name + ".net");

    for (std::uint32_t i = 0; i < topo_.nodeCount(); ++i) {
        platform::EnzianMachine::Config node_cfg = cfg_.node;
        node_cfg.name = topo_.nodes[i].name;
        node_cfg.shared_scheduler = sched_.get();
        nodes_.push_back(
            std::make_unique<platform::EnzianMachine>(node_cfg));
    }

    switch_ = std::make_unique<net::Switch>(topo_.name + ".switch",
                                            net_domain.queue(),
                                            topo_.totalPorts(), net);

    // Each port's endpoint side runs in its owning machine's FPGA
    // domain; the fabric side runs in the net domain.
    std::vector<sim::TimingDomain *> port_domains;
    port_domains.reserve(topo_.totalPorts());
    for (std::uint32_t p = 0; p < topo_.totalPorts(); ++p)
        port_domains.push_back(
            nodes_[topo_.nodeOfPort(p)]->fpgaDomain());
    switch_->bindDomains(*sched_, net_domain, port_domains);
}

EnzianCluster::~EnzianCluster() = default;

std::uint64_t
EnzianCluster::run()
{
    return sched_->run();
}

std::uint64_t
EnzianCluster::runUntil(Tick limit)
{
    return sched_->runUntil(limit);
}

} // namespace enzian::cluster
