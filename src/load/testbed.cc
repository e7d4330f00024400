/**
 * @file
 * Serving testbed construction and saturation sweeps.
 */

#include "load/testbed.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "platform/platform_factory.hh"

namespace enzian::load {

const char *
toString(ServiceKind k)
{
    switch (k) {
      case ServiceKind::Gbdt:
        return "gbdt";
      case ServiceKind::Rdma:
        return "rdma";
      case ServiceKind::Tcp:
        return "tcp";
    }
    return "?";
}

ServiceKind
serviceKindFromString(const std::string &s)
{
    if (s == "gbdt")
        return ServiceKind::Gbdt;
    if (s == "rdma")
        return ServiceKind::Rdma;
    if (s == "tcp")
        return ServiceKind::Tcp;
    fatal("unknown service '%s' (gbdt, rdma, tcp)", s.c_str());
}

namespace {

/** RDMA target region the read offsets cycle through. */
constexpr std::uint64_t rdmaRegionBytes = 64ull << 20;

} // namespace

ServingTestbed::ServingTestbed(const TestbedConfig &cfg_in) : cfg_(cfg_in)
{
    platform::EnzianMachine::Config mc =
        platform::servingMachineConfig();
    mc.protocol = cfg_.protocol;
    mc.threads = cfg_.threads;
    m_ = std::make_unique<platform::EnzianMachine>(mc);
    // Every service lives in the FPGA timing domain, next to the GBDT
    // engine, the FPGA DRAM and remote agent the RDMA paths use, and
    // the FPGA TCP stack.
    EventQueue &eq = m_->fpgaEventq();

    // The injector must exist before the service connects: TCP and
    // RDMA recovery are switched on at attach time.
    if (cfg_.plan) {
        injector_ = std::make_unique<fault::FaultInjector>(
            "serving.fault", m_->eventq(), *cfg_.plan);
        injector_->attachEci(m_->fabric(), m_->cpuHome(),
                             m_->fpgaHome(), m_->cpuRemote(),
                             m_->fpgaRemote());
        injector_->attachDram(m_->cpuMem().dram(),
                              m_->fpgaMem().dram());
        if (cfg_.plan->hasKind(fault::FaultKind::BmcRailGlitch))
            injector_->attachBmc(m_->bmc());
    }

    switch (cfg_.service) {
      case ServiceKind::Gbdt: {
        ensemble_ =
            std::make_unique<accel::GbdtEnsemble>(accel::makeEnsemble(
                cfg_.seed ^ 0xd7ee5, platform::params::gbdtTrees,
                platform::params::gbdtDepth,
                platform::params::gbdtFeatures));
        gbdt_ = std::make_unique<accel::GbdtEngine>(
            "serving.gbdt", eq, *ensemble_,
            platform::gbdtPlatformConfig("Enzian", cfg_.gbdt_engines));
        driver_ = std::make_unique<GbdtServiceDriver>(
            *gbdt_, cfg_.gbdt_batch, cfg_.seed ^ 0x7ab1e);
        break;
      }
      case ServiceKind::Rdma: {
        net::Switch::Config swc;
        swc.port.mtu = 4096;
        sw_ = std::make_unique<net::Switch>("serving.sw", eq, 2, swc);
        if (cfg_.rdma_path == "dram") {
            rdmaPath_ =
                std::make_unique<net::DirectDramPath>(m_->fpgaMem());
        } else if (cfg_.rdma_path == "eci-host") {
            if (cfg_.rdma_bytes % cache::lineSize != 0)
                fatal("serving testbed: eci-host rdma needs "
                      "line-aligned sizes (%llu B lines)",
                      static_cast<unsigned long long>(
                          cache::lineSize));
            rdmaPath_ = std::make_unique<net::EciHostPath>(
                m_->fpgaRemote(), 0);
        } else {
            fatal("serving testbed: unknown rdma path '%s' "
                  "(dram, eci-host)",
                  cfg_.rdma_path.c_str());
        }
        net::RdmaTarget::Config tc;
        tc.port = 0;
        rdmaTgt_ = std::make_unique<net::RdmaTarget>(
            "serving.rdma.tgt", eq, *sw_, *rdmaPath_, tc);
        rdmaIni_ = std::make_unique<net::RdmaInitiator>(
            "serving.rdma.ini", eq, *sw_, 1, 0);
        if (injector_)
            injector_->attachRdma(*rdmaIni_, *rdmaTgt_,
                                  /*abandon_after_retries=*/true);
        driver_ = std::make_unique<RdmaServiceDriver>(
            *rdmaIni_, cfg_.rdma_bytes, rdmaRegionBytes);
        break;
      }
      case ServiceKind::Tcp: {
        sw_ = std::make_unique<net::Switch>("serving.sw", eq, 2,
                                            net::Switch::Config{});
        tcpClient_ = std::make_unique<net::TcpStack>(
            "serving.tcp.client", eq, *sw_, net::hostTcpConfig(0));
        tcpServer_ = std::make_unique<net::TcpStack>(
            "serving.tcp.server", eq, *sw_,
            net::fpgaTcpConfig(1, 250e6));
        if (injector_)
            injector_->attachNet(*tcpClient_, *tcpServer_);
        driver_ = std::make_unique<TcpEchoServiceDriver>(
            *tcpClient_, *tcpServer_, cfg_.tcp_flows, cfg_.tcp_bytes);
        break;
      }
    }

    if (injector_)
        injector_->arm();
}

ServingTestbed::~ServingTestbed() = default;

double
ServingTestbed::estimatedCapacityRps()
{
    switch (cfg_.service) {
      case ServiceKind::Gbdt:
        return 1.0 / gbdt_->serviceSeconds(cfg_.gbdt_batch);
      case ServiceKind::Rdma: {
        // The wire is the steady-state bottleneck: responses carry
        // the payload plus a header back over one 100G port.
        const double bw = sw_->port(0).effectiveBandwidth();
        return bw / static_cast<double>(cfg_.rdma_bytes +
                                        net::rdmaHeaderBytes);
      }
      case ServiceKind::Tcp: {
        // Per-request cost on each stack: tx its direction plus rx
        // the other; the slower stack binds the echo rate.
        auto stack_secs = [&](const net::TcpStack::Config &c) {
            const double segs = std::ceil(
                static_cast<double>(cfg_.tcp_bytes) / c.mss);
            return (segs * (c.tx_fixed_ns + c.rx_fixed_ns) +
                    static_cast<double>(cfg_.tcp_bytes) *
                        (c.tx_per_byte_ns + c.rx_per_byte_ns)) *
                   1e-9;
        };
        const double client = stack_secs(tcpClient_->config());
        const double server = stack_secs(tcpServer_->config());
        // Host flows run one core each; the fpga pipeline is shared.
        const double client_eff =
            tcpClient_->config().shared_pipeline
                ? client
                : client / static_cast<double>(cfg_.tcp_flows);
        return 1.0 / std::max(client_eff, server);
      }
    }
    return 0.0;
}

std::vector<double>
geometricRates(double lo, double hi, std::size_t n)
{
    ENZIAN_ASSERT(lo > 0.0 && hi >= lo && n >= 1,
                  "bad rate ladder [%f, %f] x %zu", lo, hi, n);
    std::vector<double> rates;
    rates.reserve(n);
    if (n == 1) {
        rates.push_back(hi);
        return rates;
    }
    const double step = std::pow(hi / lo, 1.0 / (n - 1));
    double r = lo;
    for (std::size_t i = 0; i < n; ++i, r *= step)
        rates.push_back(i + 1 == n ? hi : r);
    return rates;
}

SweepResult
runSweep(const SweepConfig &cfg)
{
    std::vector<double> rates = cfg.rates;
    if (rates.empty()) {
        ServingTestbed probe(cfg.testbed);
        const double cap = probe.estimatedCapacityRps();
        rates = geometricRates(0.10 * cap, 1.5 * cap,
                               cfg.auto_points);
    }

    SweepResult result;
    for (const double rate : rates) {
        ServingTestbed bed(cfg.testbed);

        obs::SloRecorder::Config sc;
        sc.name = "sweep";
        sc.window = cfg.window;
        sc.slo_latency_us = cfg.slo_latency_us;
        sc.slo_quantile = cfg.slo_quantile;
        obs::SloRecorder slo(sc);

        LoadGen::Config lc;
        lc.arrival = cfg.arrival;
        lc.arrival.rate_rps = rate;
        lc.duration = cfg.duration;
        lc.clients = cfg.clients;
        LoadGen gen("serving.loadgen", bed.eventq(), bed.driver(),
                    slo, lc);
        gen.start();
        bed.run();
        slo.rollTo(bed.eventq().now());

        SweepPoint p;
        p.offered_rps = rate;
        p.offered = gen.offeredCount();
        p.completed = gen.completedCount();
        p.achieved_rps =
            static_cast<double>(p.completed) /
            units::toSeconds(cfg.duration);
        p.p50_us = slo.p50Us();
        p.p99_us = slo.p99Us();
        p.p999_us = slo.p999Us();
        p.mean_us = slo.meanUs();
        p.max_us = slo.maxUs();
        p.burn_rate = slo.burnRate();
        // A request that never completed (abandoned under faults) is
        // an SLO violation with infinite latency: the quantile is
        // only meaningful if at least that fraction completed at all.
        const double done_frac =
            p.offered ? static_cast<double>(p.completed) /
                            static_cast<double>(p.offered)
                      : 1.0;
        p.slo_ok = slo.sloMet() && done_frac >= cfg.slo_quantile;
        result.points.push_back(p);
    }

    // The knee: the highest offered load whose run met the SLO. The
    // ladder ascends, so scan from the top.
    for (int i = static_cast<int>(result.points.size()) - 1; i >= 0;
         --i) {
        if (result.points[i].slo_ok) {
            result.knee = i;
            result.knee_rps = result.points[i].offered_rps;
            break;
        }
    }
    return result;
}

} // namespace enzian::load
