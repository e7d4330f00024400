/**
 * @file
 * Load-harness tests: arrival process statistics and determinism, the
 * open-loop generator against every service testbed, saturation-sweep
 * knee detection, parallel-machine reproducibility of the SLO series,
 * per-request flow tracing parsed back from Chrome JSON, and SLO
 * degradation under an injected fault plan.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/fault_plan.hh"
#include "load/arrival.hh"
#include "load/load_gen.hh"
#include "load/testbed.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/slo.hh"
#include "obs/span_tracer.hh"

namespace enzian::load {
namespace {

// --------------------------------------------------- arrival processes

double
measuredRate(const ArrivalConfig &cfg, double horizon_sec)
{
    auto proc = ArrivalProcess::make(cfg);
    const Tick horizon = units::sec(horizon_sec);
    Tick t = 0;
    std::uint64_t n = 0;
    while (true) {
        t += proc->nextGap();
        if (t > horizon)
            break;
        ++n;
    }
    return static_cast<double>(n) / horizon_sec;
}

TEST(Arrival, PoissonHitsTheConfiguredRate)
{
    ArrivalConfig cfg;
    cfg.rate_rps = 50000.0;
    cfg.seed = 42;
    // 0.2 s => ~10k arrivals; sigma ~1%, so 5% is comfortable.
    EXPECT_NEAR(measuredRate(cfg, 0.2), cfg.rate_rps,
                0.05 * cfg.rate_rps);
}

TEST(Arrival, MmppMeansTheConfiguredRateDespiteBursts)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Mmpp;
    cfg.rate_rps = 50000.0;
    cfg.seed = 7;
    cfg.mmpp_burst_ratio = 9.0;
    cfg.mmpp_dwell = units::us(500.0);
    // Many dwell alternations average the two phases out.
    EXPECT_NEAR(measuredRate(cfg, 0.5), cfg.rate_rps,
                0.08 * cfg.rate_rps);
}

TEST(Arrival, DiurnalAveragesOutOverWholePeriods)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Diurnal;
    cfg.rate_rps = 50000.0;
    cfg.seed = 3;
    cfg.diurnal_amplitude = 0.8;
    cfg.diurnal_period = units::ms(50.0);
    // 10 whole periods: the sinusoid integrates to zero.
    EXPECT_NEAR(measuredRate(cfg, 0.5), cfg.rate_rps,
                0.05 * cfg.rate_rps);
}

TEST(Arrival, SameSeedSameGapsDifferentSeedDifferent)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Mmpp,
                             ArrivalKind::Diurnal}) {
        ArrivalConfig cfg;
        cfg.kind = kind;
        cfg.rate_rps = 10000.0;
        cfg.seed = 11;
        auto a = ArrivalProcess::make(cfg);
        auto b = ArrivalProcess::make(cfg);
        cfg.seed = 12;
        auto c = ArrivalProcess::make(cfg);
        bool any_diff = false;
        for (int i = 0; i < 200; ++i) {
            const Tick ga = a->nextGap();
            EXPECT_EQ(ga, b->nextGap()) << toString(kind);
            any_diff |= ga != c->nextGap();
        }
        EXPECT_TRUE(any_diff) << toString(kind);
    }
}

TEST(Arrival, NamesRoundTrip)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Mmpp,
                             ArrivalKind::Diurnal})
        EXPECT_EQ(arrivalKindFromString(toString(kind)), kind);
}

// --------------------------------------------------- service testbeds

struct RunOutcome
{
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    double p99_us = 0.0;
    std::string csv;
    /** The whole stats registry, exported while the testbed lives. */
    std::string registry;
    std::uint64_t injected = 0;
    /** Did the machine run on a domain scheduler? */
    bool scheduled = false;
};

RunOutcome
runService(TestbedConfig tbc, double rate_rps, double duration_ms,
           const fault::FaultPlan *plan = nullptr,
           std::uint64_t trace_requests = 0)
{
    tbc.plan = plan;
    ServingTestbed bed(tbc);
    obs::SloRecorder::Config sc;
    sc.name = "test";
    sc.window = units::ms(1.0);
    obs::SloRecorder slo(sc);
    LoadGen::Config lc;
    lc.arrival.rate_rps = rate_rps;
    lc.duration = units::ms(duration_ms);
    lc.trace_requests = trace_requests;
    LoadGen gen("test.loadgen", bed.eventq(), bed.driver(), slo, lc);
    gen.start();
    bed.run();
    slo.rollTo(bed.eventq().now());

    RunOutcome out;
    out.offered = gen.offeredCount();
    out.completed = gen.completedCount();
    out.p99_us = slo.p99Us();
    std::ostringstream os;
    slo.writeCsv(os);
    out.csv = os.str();
    std::ostringstream js;
    obs::Registry::global().exportJson(js);
    out.registry = js.str();
    if (bed.injector())
        out.injected = bed.injector()->injectedTotal();
    out.scheduled = bed.machine().scheduler() != nullptr;
    return out;
}

TEST(ServingTestbed, EveryServiceCompletesAllOfferedRequests)
{
    for (ServiceKind svc : {ServiceKind::Gbdt, ServiceKind::Rdma,
                            ServiceKind::Tcp}) {
        TestbedConfig tbc;
        tbc.service = svc;
        const RunOutcome out = runService(tbc, 20000.0, 5.0);
        EXPECT_GT(out.offered, 50u) << toString(svc);
        EXPECT_EQ(out.completed, out.offered) << toString(svc);
        EXPECT_GT(out.p99_us, 0.0) << toString(svc);
    }
}

TEST(ServingTestbed, EciHostRdmaPathServes)
{
    TestbedConfig tbc;
    tbc.service = ServiceKind::Rdma;
    tbc.rdma_path = "eci-host";
    tbc.rdma_bytes = 4096;
    const RunOutcome out = runService(tbc, 10000.0, 2.0);
    EXPECT_EQ(out.completed, out.offered);
    EXPECT_GT(out.offered, 10u);
}

// Every service runs on the timing-domain machine at threads >= 1:
// the SLO series equals the single-queue machine's at any thread
// count, and the registry (which holds the scheduler's stats only in
// domain mode) is the same at 1 and 4 threads.
TEST(ServingTestbed, SloSeriesIsByteIdenticalAcrossThreadCounts)
{
    struct Case
    {
        ServiceKind service;
        const char *rdma_path;
    };
    for (const Case c : {Case{ServiceKind::Gbdt, "dram"},
                         Case{ServiceKind::Tcp, "dram"},
                         Case{ServiceKind::Rdma, "dram"},
                         Case{ServiceKind::Rdma, "eci-host"}}) {
        TestbedConfig tbc;
        tbc.service = c.service;
        tbc.rdma_path = c.rdma_path;
        SCOPED_TRACE(std::string(toString(c.service)) + " " +
                     c.rdma_path);
        const RunOutcome t0 = runService(tbc, 30000.0, 10.0);
        tbc.threads = 1;
        const RunOutcome t1 = runService(tbc, 30000.0, 10.0);
        tbc.threads = 4;
        const RunOutcome t4 = runService(tbc, 30000.0, 10.0);
        EXPECT_GT(t0.offered, 100u);
        EXPECT_FALSE(t0.scheduled);
        EXPECT_TRUE(t1.scheduled);
        EXPECT_TRUE(t4.scheduled);
        EXPECT_EQ(t0.completed, t0.offered);
        for (const RunOutcome *t : {&t1, &t4}) {
            EXPECT_EQ(t0.offered, t->offered);
            EXPECT_EQ(t0.completed, t->completed);
            EXPECT_EQ(t0.csv, t->csv);
        }
        EXPECT_EQ(t1.registry, t4.registry);
    }
}

// ------------------------------------------------------------- sweeps

TEST(Sweep, GbdtLatencyRisesWithLoadAndKneeIsFound)
{
    SweepConfig cfg;
    cfg.testbed.service = ServiceKind::Gbdt;
    cfg.duration = units::ms(10.0);
    cfg.auto_points = 5;
    const SweepResult r = runSweep(cfg);
    ASSERT_EQ(r.points.size(), 5u);

    // The auto ladder tops out at 150% of capacity, so the last point
    // must overload; the first (10%) must be comfortable.
    EXPECT_TRUE(r.points.front().slo_ok);
    EXPECT_FALSE(r.points.back().slo_ok);
    ASSERT_GE(r.knee, 0);
    EXPECT_LT(r.knee, 4);
    EXPECT_EQ(r.knee_rps, r.points[r.knee].offered_rps);

    // Monotone offered load, and latency that never collapses as the
    // load rises (allowing bucket-resolution jitter).
    for (std::size_t i = 1; i < r.points.size(); ++i) {
        EXPECT_GT(r.points[i].offered_rps,
                  r.points[i - 1].offered_rps);
        EXPECT_GE(r.points[i].p99_us, r.points[i - 1].p99_us * 0.95);
    }
    // Overload shows up as queueing: the top point is far slower.
    EXPECT_GT(r.points.back().p99_us, 5.0 * r.points.front().p99_us);
}

TEST(Sweep, GeometricRatesSpanTheRangeExactly)
{
    const auto rates = geometricRates(10.0, 1000.0, 4);
    ASSERT_EQ(rates.size(), 4u);
    EXPECT_DOUBLE_EQ(rates.front(), 10.0);
    EXPECT_DOUBLE_EQ(rates.back(), 1000.0);
    for (std::size_t i = 1; i < rates.size(); ++i)
        EXPECT_GT(rates[i], rates[i - 1]);
    EXPECT_EQ(geometricRates(5.0, 5.0, 1).size(), 1u);
}

// ------------------------------------------------------ fault overlay

TEST(Sweep, RdmaDropPlanDegradesTailLatencyButNotCompletion)
{
    std::istringstream spec(
        "seed 9\n"
        "fault kind=rdma-drop prob=0.05 at_us=0\n");
    std::string err;
    auto plan = fault::FaultPlan::parse(spec, err);
    ASSERT_TRUE(plan) << err;

    TestbedConfig tbc;
    tbc.service = ServiceKind::Rdma;
    const RunOutcome clean = runService(tbc, 50000.0, 2.0);
    const RunOutcome faulted =
        runService(tbc, 50000.0, 2.0, &*plan);

    EXPECT_EQ(clean.completed, clean.offered);
    EXPECT_EQ(faulted.completed, faulted.offered);
    // A dropped request recovers via the 50 us retry timeout, so the
    // faulted tail sits well above the clean ~5 us read latency.
    EXPECT_GT(faulted.p99_us, 2.0 * clean.p99_us);
}

// ECI drops, DRAM ECC and a BMC rail glitch on the sharded machine:
// the injector finds the scheduler through the fabric, so sweeps and
// the registry are the same at 1 and 4 threads.
TEST(Sweep, FaultPlanIsThreadCountInvariant)
{
    std::istringstream spec(
        "seed 12\n"
        "fault kind=eci-msg-drop prob=0.05 at_us=0\n"
        "fault kind=dram-ecc-correctable prob=0.1 target=1 at_us=0\n"
        "fault kind=bmc-rail-glitch target=0 at_us=100\n");
    std::string err;
    auto plan = fault::FaultPlan::parse(spec, err);
    ASSERT_TRUE(plan) << err;

    auto sweep = [&](std::uint32_t threads) {
        SweepConfig cfg;
        cfg.testbed.service = ServiceKind::Gbdt;
        cfg.testbed.threads = threads;
        cfg.testbed.plan = &*plan;
        cfg.duration = units::ms(5.0);
        cfg.auto_points = 3;
        return runSweep(cfg);
    };
    const SweepResult s1 = sweep(1);
    const SweepResult s4 = sweep(4);
    ASSERT_EQ(s1.points.size(), 3u);
    ASSERT_EQ(s4.points.size(), s1.points.size());
    EXPECT_EQ(s1.knee, s4.knee);
    for (std::size_t i = 0; i < s1.points.size(); ++i) {
        const SweepPoint &a = s1.points[i];
        const SweepPoint &b = s4.points[i];
        EXPECT_EQ(a.offered, b.offered) << i;
        EXPECT_EQ(a.completed, b.completed) << i;
        EXPECT_EQ(a.p50_us, b.p50_us) << i;
        EXPECT_EQ(a.p99_us, b.p99_us) << i;
        EXPECT_EQ(a.p999_us, b.p999_us) << i;
        EXPECT_EQ(a.max_us, b.max_us) << i;
        EXPECT_EQ(a.slo_ok, b.slo_ok) << i;
    }

    TestbedConfig tbc;
    tbc.service = ServiceKind::Gbdt;
    tbc.threads = 1;
    const RunOutcome t1 = runService(tbc, 30000.0, 5.0, &*plan);
    tbc.threads = 4;
    const RunOutcome t4 = runService(tbc, 30000.0, 5.0, &*plan);
    EXPECT_EQ(t1.completed, t1.offered);
    // The ECC window and the glitch; GBDT sends nothing over ECI.
    EXPECT_EQ(t1.injected, 2u);
    EXPECT_EQ(t1.injected, t4.injected);
    EXPECT_EQ(t1.csv, t4.csv);
    EXPECT_EQ(t1.registry, t4.registry);
}

// ------------------------------------------------- per-request tracing

TEST(Tracing, TracedRequestsEmitFlowChainsOnTheirOwnTrack)
{
    obs::SpanTracer &tracer = obs::SpanTracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    TestbedConfig tbc;
    tbc.service = ServiceKind::Gbdt;
    const RunOutcome out =
        runService(tbc, 20000.0, 2.0, nullptr, /*trace_requests=*/4);
    tracer.setEnabled(false);
    ASSERT_GT(out.offered, 4u);

    std::ostringstream os;
    tracer.writeChromeJson(os);
    tracer.clear();
    obs::json::Value doc;
    std::string err;
    ASSERT_TRUE(obs::json::parse(os.str(), doc, &err)) << err;

    // Track names live in thread metadata events; request tracks are
    // one per traced request.
    const obs::json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw_req1_track = false;
    bool saw_begin = false, saw_step = false, saw_end = false;
    bool saw_queue = false, saw_service = false, saw_request = false;
    for (const obs::json::Value &e : events->arr) {
        const obs::json::Value *ph = e.find("ph");
        if (!ph)
            continue;
        if (ph->str == "M") {
            const obs::json::Value *args = e.find("args");
            if (args && args->find("name") &&
                args->find("name")->str == requestTrack(1))
                saw_req1_track = true;
            continue;
        }
        const obs::json::Value *id = e.find("id");
        if (id && id->str == "0x1") {
            saw_begin |= ph->str == "s";
            saw_step |= ph->str == "t";
            saw_end |= ph->str == "f";
        }
        if (ph->str == "X") {
            const std::string &n = e.find("name")->str;
            saw_queue |= n == "queue";
            saw_service |= n == "service";
            saw_request |= n == "request";
        }
    }
    EXPECT_TRUE(saw_req1_track);
    EXPECT_TRUE(saw_begin);
    EXPECT_TRUE(saw_step);
    EXPECT_TRUE(saw_end);
    EXPECT_TRUE(saw_queue);
    EXPECT_TRUE(saw_service);
    EXPECT_TRUE(saw_request);
}

} // namespace
} // namespace enzian::load
