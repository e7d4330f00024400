/**
 * @file
 * Self-contained serving testbeds and saturation sweeps.
 *
 * A ServingTestbed owns an EnzianMachine plus the wiring for one
 * service behind a ServiceDriver: GBDT inference on the FPGA engine,
 * RDMA reads against FPGA DRAM or ECI-coherent host memory, or TCP
 * echo between a host stack and the FPGA stack. An optional FaultPlan
 * is attached (and its recovery machinery enabled) before the service
 * connects, so SLO deltas under faults are one flag away.
 *
 * runSweep() is the capacity-planning primitive: drive the testbed at
 * a ladder of offered rates, fresh machine per point (so points are
 * independent), and report the knee — the highest offered load whose
 * run still meets the SLO at the configured quantile.
 */

#ifndef ENZIAN_LOAD_TESTBED_HH
#define ENZIAN_LOAD_TESTBED_HH

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "load/drivers.hh"
#include "load/load_gen.hh"
#include "platform/enzian_machine.hh"

namespace enzian::load {

/** Which service a testbed serves. */
enum class ServiceKind : std::uint8_t { Gbdt, Rdma, Tcp };

const char *toString(ServiceKind k);
ServiceKind serviceKindFromString(const std::string &s);

/** Testbed construction parameters. */
struct TestbedConfig
{
    ServiceKind service = ServiceKind::Gbdt;
    /** Coherence protocol for the machine. */
    std::string protocol = "moesi";
    /**
     * Parallel domain mode thread count (0 = classic single queue).
     * Every service runs in the machine's FPGA timing domain, so the
     * results are the same at any count.
     */
    std::uint32_t threads = 0;
    /** Seed for tuple pools and machine-level randomness. */
    std::uint64_t seed = 1;

    // -- gbdt ----------------------------------------------------------
    std::uint32_t gbdt_engines = 1;
    std::uint64_t gbdt_batch = 512;

    // -- rdma ----------------------------------------------------------
    std::uint64_t rdma_bytes = 4096;
    /** "dram" or "eci-host". */
    std::string rdma_path = "dram";

    // -- tcp -----------------------------------------------------------
    std::uint64_t tcp_bytes = 2048;
    std::uint32_t tcp_flows = 4;

    /** Optional fault plan armed against the testbed (not owned). */
    const fault::FaultPlan *plan = nullptr;
};

/** One service wired up and ready for a LoadGen. */
class ServingTestbed
{
  public:
    explicit ServingTestbed(const TestbedConfig &cfg);
    ~ServingTestbed();

    ServingTestbed(const ServingTestbed &) = delete;
    ServingTestbed &operator=(const ServingTestbed &) = delete;

    ServiceDriver &driver() { return *driver_; }
    platform::EnzianMachine &machine() { return *m_; }
    /** The FPGA domain's queue, which every service runs on. */
    EventQueue &eventq() { return m_->fpgaEventq(); }
    fault::FaultInjector *injector() { return injector_.get(); }

    /** Run the machine until all queued work drains. */
    void run() { m_->run(); }

    /**
     * Analytic service-rate estimate (requests/second) used to build
     * sweep ladders: the batch service time for GBDT, the response
     * wire for RDMA, the slower stack's per-request cost for TCP.
     */
    double estimatedCapacityRps();

  private:
    TestbedConfig cfg_;
    std::unique_ptr<platform::EnzianMachine> m_;
    std::unique_ptr<fault::FaultInjector> injector_;

    // gbdt
    std::unique_ptr<accel::GbdtEnsemble> ensemble_;
    std::unique_ptr<accel::GbdtEngine> gbdt_;

    // rdma / tcp share the switch
    std::unique_ptr<net::Switch> sw_;
    std::unique_ptr<net::MemoryPath> rdmaPath_;
    std::unique_ptr<net::RdmaTarget> rdmaTgt_;
    std::unique_ptr<net::RdmaInitiator> rdmaIni_;
    std::unique_ptr<net::TcpStack> tcpClient_;
    std::unique_ptr<net::TcpStack> tcpServer_;

    std::unique_ptr<ServiceDriver> driver_;
};

/** Sweep parameters. */
struct SweepConfig
{
    TestbedConfig testbed;
    /** Arrival shape; rate_rps is overridden per ladder point. */
    ArrivalConfig arrival;
    Tick duration = units::ms(50.0);
    Tick window = units::ms(5.0);
    double slo_latency_us = 1000.0;
    double slo_quantile = 0.99;
    std::uint64_t clients = 1'000'000;
    /**
     * Offered-rate ladder (requests/second, ascending). Empty = auto:
     * a geometric ladder from 10% to 150% of the testbed's estimated
     * capacity.
     */
    std::vector<double> rates;
    /** Auto-ladder size when rates is empty. */
    std::size_t auto_points = 8;
};

/** One measured operating point. */
struct SweepPoint
{
    double offered_rps = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    double achieved_rps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
    double mean_us = 0.0;
    double max_us = 0.0;
    double burn_rate = 0.0;
    bool slo_ok = false;
};

/** Sweep outcome. */
struct SweepResult
{
    std::vector<SweepPoint> points;
    /** Index of the knee point, or -1 if no point meets the SLO. */
    int knee = -1;
    /** Offered rate at the knee (0 when knee < 0). */
    double knee_rps = 0.0;
};

/** @p n geometrically spaced rates over [lo, hi]. */
std::vector<double> geometricRates(double lo, double hi, std::size_t n);

/** Run the saturation sweep; fresh testbed per ladder point. */
SweepResult runSweep(const SweepConfig &cfg);

} // namespace enzian::load

#endif // ENZIAN_LOAD_TESTBED_HH
