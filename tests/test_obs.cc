/**
 * @file
 * Observability layer tests: JSON writer/parser, registry
 * registration and teardown, snapshot/diff, exports, interval
 * sampler, span tracer (including Chrome-trace JSON parsed back), and
 * the whole-machine demo scenario the acceptance criteria name.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/request_context.hh"
#include "obs/sampler.hh"
#include "obs/slo.hh"
#include "obs/span_tracer.hh"
#include "platform/obs_demo.hh"
#include "platform/platform_factory.hh"
#include "sim/sim_object.hh"

namespace enzian::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, EscapeCoversQuotesBackslashesAndControls)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(json::escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Json, NumberRendersFinitelyAndNullsNonFinite)
{
    EXPECT_EQ(json::number(0.0), "0");
    EXPECT_EQ(json::number(NAN), "null");
    EXPECT_EQ(json::number(INFINITY), "null");
    // Round-trip precision.
    json::Value v;
    ASSERT_TRUE(json::parse(json::number(0.1), v));
    EXPECT_DOUBLE_EQ(v.num, 0.1);
}

TEST(Json, ParserRoundTripsEscapedStrings)
{
    const std::string nasty = "he said \"hi\\there\"\n\x02";
    json::Value v;
    ASSERT_TRUE(json::parse("{\"k\": " + json::quote(nasty) + "}", v));
    ASSERT_TRUE(v.isObject());
    ASSERT_NE(v.find("k"), nullptr);
    EXPECT_EQ(v.find("k")->str, nasty);
}

TEST(Json, ParserRejectsTrailingGarbage)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("{\"a\":1} extra", v, &err));
    EXPECT_FALSE(err.empty());
}

// ------------------------------------------------------------ Registry

TEST(Registry, AddRemoveAndSortedGroups)
{
    Registry reg;
    Counter c1, c2;
    StatGroup g1("zeta"), g2("alpha");
    g1.addCounter("events", &c1);
    g2.addCounter("events", &c2);
    reg.add(&g1);
    reg.add(&g2);
    EXPECT_EQ(reg.groupCount(), 2u);
    auto groups = reg.groups();
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0]->name(), "alpha"); // sorted by name
    EXPECT_EQ(groups[1]->name(), "zeta");
    reg.remove(&g1);
    EXPECT_EQ(reg.groupCount(), 1u);
    reg.remove(&g1); // no-op
    EXPECT_EQ(reg.groupCount(), 1u);
}

TEST(Registry, SimObjectAutoRegistersForItsLifetime)
{
    Registry &reg = Registry::global();
    const std::size_t before = reg.groupCount();
    {
        EventQueue eq;
        SimObject obj("test.autoreg.obj", eq);
        Counter hits;
        obj.stats().addCounter("hits", &hits);
        hits.inc(3);
        EXPECT_EQ(reg.groupCount(), before + 1);
        Snapshot snap = reg.snapshot();
        ASSERT_TRUE(snap.count("test.autoreg.obj.hits"));
        EXPECT_DOUBLE_EQ(snap["test.autoreg.obj.hits"], 3.0);
    }
    // Destruction deregisters; a stale pointer here would crash the
    // next snapshot.
    EXPECT_EQ(reg.groupCount(), before);
    Snapshot snap = reg.snapshot();
    EXPECT_FALSE(snap.count("test.autoreg.obj.hits"));
}

TEST(Registry, SnapshotFlattensEveryStatKind)
{
    Registry reg;
    Counter c;
    Gauge g;
    Accumulator a;
    Histogram h(0.0, 100.0, 10);
    StatGroup grp("comp");
    grp.addCounter("ops", &c);
    grp.addGauge("level", &g);
    grp.addAccumulator("lat", &a);
    grp.addHistogram("dist", &h);
    reg.add(&grp);
    c.inc(7);
    g.set(-2.5);
    a.sample(10.0);
    a.sample(30.0);
    h.sample(55.0);

    Snapshot s = reg.snapshot();
    EXPECT_DOUBLE_EQ(s["comp.ops"], 7.0);
    EXPECT_DOUBLE_EQ(s["comp.level"], -2.5);
    EXPECT_DOUBLE_EQ(s["comp.lat.count"], 2.0);
    EXPECT_DOUBLE_EQ(s["comp.lat.mean"], 20.0);
    EXPECT_DOUBLE_EQ(s["comp.lat.min"], 10.0);
    EXPECT_DOUBLE_EQ(s["comp.lat.max"], 30.0);
    EXPECT_DOUBLE_EQ(s["comp.dist.count"], 1.0);
    EXPECT_NEAR(s["comp.dist.p50"], 55.0, 10.0);
}

TEST(Registry, DiffKeepsNewKeysAndDropsGoneOnes)
{
    Snapshot older{{"a", 10.0}, {"gone", 5.0}};
    Snapshot newer{{"a", 25.0}, {"fresh", 3.0}};
    Snapshot d = diff(newer, older);
    EXPECT_DOUBLE_EQ(d["a"], 15.0);
    EXPECT_DOUBLE_EQ(d["fresh"], 3.0);
    EXPECT_FALSE(d.count("gone"));
}

TEST(Registry, ResetAllZeroesEveryGroup)
{
    Registry reg;
    Counter c;
    Accumulator a;
    StatGroup grp("comp");
    grp.addCounter("ops", &c);
    grp.addAccumulator("lat", &a);
    reg.add(&grp);
    c.inc(9);
    a.sample(4.0);
    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.count(), 0u);
}

TEST(Registry, JsonExportNestsOnDotsAndParsesBack)
{
    Registry reg;
    Counter c;
    StatGroup grp("node.eci.link0");
    grp.addCounter("messages", &c);
    reg.add(&grp);
    c.inc(42);

    std::ostringstream os;
    reg.exportJson(os);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), v, &err)) << err;
    const json::Value *node = v.find("node");
    ASSERT_NE(node, nullptr);
    const json::Value *eci = node->find("eci");
    ASSERT_NE(eci, nullptr);
    const json::Value *link = eci->find("link0");
    ASSERT_NE(link, nullptr);
    const json::Value *msgs = link->find("messages");
    ASSERT_NE(msgs, nullptr);
    EXPECT_DOUBLE_EQ(msgs->num, 42.0);
}

TEST(Registry, JsonExportEscapesHostileNames)
{
    Registry reg;
    Counter c;
    StatGroup grp("weird\"name\\x");
    grp.addCounter("a\nb", &c);
    reg.add(&grp);

    std::ostringstream os;
    reg.exportJson(os);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), v, &err)) << err;
    ASSERT_NE(v.find("weird\"name\\x"), nullptr);
    EXPECT_NE(v.find("weird\"name\\x")->find("a\nb"), nullptr);
}

TEST(Registry, PrometheusNameSanitizesAndExportHasTypes)
{
    EXPECT_EQ(Registry::prometheusName("a.b-c.d ns"),
              "enzian_a_b_c_d_ns");

    Registry reg;
    Counter c;
    Gauge g;
    StatGroup grp("node.link");
    grp.addCounter("messages", &c);
    grp.addGauge("depth", &g);
    reg.add(&grp);
    c.inc(5);
    g.set(2.0);

    std::ostringstream os;
    reg.exportPrometheus(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("# TYPE enzian_node_link_messages counter"),
              std::string::npos);
    EXPECT_NE(text.find("enzian_node_link_messages 5"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE enzian_node_link_depth gauge"),
              std::string::npos);
}

// ------------------------------------------------------------- Sampler

TEST(Sampler, ExpectedSamplesMath)
{
    EXPECT_EQ(Sampler::expectedSamples(0, 1000, 100), 10u);
    EXPECT_EQ(Sampler::expectedSamples(0, 1050, 100), 10u);
    EXPECT_EQ(Sampler::expectedSamples(0, 99, 100), 0u);
    EXPECT_EQ(Sampler::expectedSamples(500, 500, 100), 0u);
    EXPECT_EQ(Sampler::expectedSamples(500, 400, 100), 0u);
    EXPECT_EQ(Sampler::expectedSamples(250, 1000, 250), 3u);
}

TEST(Sampler, SamplesAtExactIntervalsAndCsvHasDeltas)
{
    Registry reg;
    Counter work;
    StatGroup grp("w");
    grp.addCounter("done", &work);
    reg.add(&grp);

    EventQueue eq;
    // Workload: one unit of work every 10 ns for 100 ns.
    for (int i = 1; i <= 10; ++i)
        eq.schedule(units::ns(10.0 * i), [&]() { work.inc(); });

    Sampler sampler(reg, eq, units::ns(25.0));
    sampler.run(units::ns(100.0));
    eq.run();

    ASSERT_EQ(sampler.samplesTaken(), 4u);
    EXPECT_EQ(sampler.points()[0].at, units::ns(25.0));
    EXPECT_EQ(sampler.points()[3].at, units::ns(100.0));
    // Totals are cumulative at each boundary...
    EXPECT_DOUBLE_EQ(sampler.points()[0].total.at("w.done"), 2.0);
    EXPECT_DOUBLE_EQ(sampler.points()[3].total.at("w.done"), 10.0);

    // ...and the CSV rows carry per-interval deltas.
    std::ostringstream os;
    sampler.writeCsv(os);
    std::istringstream is(os.str());
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "tick_ps,w.done");
    std::getline(is, line);
    EXPECT_EQ(line, std::to_string(units::ns(25.0)) + ",2");
    std::getline(is, line); // 50 ns: +3 (30,40,50)
    EXPECT_EQ(line, std::to_string(units::ns(50.0)) + ",3");
}

TEST(Sampler, JsonSeriesParsesBack)
{
    Registry reg;
    Counter c;
    StatGroup grp("w");
    grp.addCounter("n", &c);
    reg.add(&grp);
    EventQueue eq;
    eq.schedule(units::ns(10.0), [&]() { c.inc(4); });
    Sampler sampler(reg, eq, units::ns(20.0));
    sampler.run(units::ns(40.0));
    eq.run();

    std::ostringstream os;
    sampler.writeJson(os);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), v, &err)) << err;
    const json::Value *points = v.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->arr.size(), 2u);
    const json::Value *total = points->arr[0].find("total");
    ASSERT_NE(total, nullptr);
    EXPECT_DOUBLE_EQ(total->find("w")->find("n")->num, 4.0);
}

// ---------------------------------------------------------- SpanTracer

/** Parse tracer output and return tid -> thread name. */
std::map<double, std::string>
trackNames(const json::Value &doc)
{
    std::map<double, std::string> names;
    const json::Value *events = doc.find("traceEvents");
    EXPECT_NE(events, nullptr);
    for (const json::Value &e : events->arr) {
        const json::Value *ph = e.find("ph");
        if (ph && ph->str == "M") {
            const json::Value *args = e.find("args");
            EXPECT_NE(args, nullptr) << "metadata without args";
            if (args)
                names[e.find("tid")->num] = args->find("name")->str;
        }
    }
    return names;
}

TEST(SpanTracer, DisabledByDefaultAndMacroRespectsIt)
{
    SpanTracer tracer;
    EXPECT_FALSE(tracer.enabled());
    // Direct calls record unconditionally (used by converters)...
    tracer.complete("t", "op", units::ns(1.0), units::ns(2.0));
    EXPECT_EQ(tracer.eventCount(), 1u);
    // ...while the macro path checks the global tracer's flag.
    SpanTracer &g = SpanTracer::global();
    g.clear();
    g.setEnabled(false);
    const std::size_t before = g.eventCount();
    ENZIAN_SPAN("t", "op", units::ns(1.0), units::ns(2.0));
    EXPECT_EQ(g.eventCount(), before);
}

TEST(SpanTracer, ChromeJsonParsesBackWithAllPhases)
{
    SpanTracer tracer;
    tracer.complete("comp.a", "read", units::us(1.0), units::us(3.0));
    tracer.instant("comp.b", "irq", units::us(2.0));
    tracer.counter("comp.c", "depth", units::us(2.5), 7.0);

    std::ostringstream os;
    tracer.writeChromeJson(os);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), doc, &err)) << err;

    auto names = trackNames(doc);
    EXPECT_EQ(names.size(), 3u);

    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw_x = false, saw_i = false, saw_c = false;
    for (const json::Value &e : events->arr) {
        const std::string &ph = e.find("ph")->str;
        if (ph == "X") {
            saw_x = true;
            EXPECT_DOUBLE_EQ(e.find("ts")->num, 1.0); // microseconds
            EXPECT_DOUBLE_EQ(e.find("dur")->num, 2.0);
            EXPECT_EQ(e.find("name")->str, "read");
        } else if (ph == "i") {
            saw_i = true;
            EXPECT_DOUBLE_EQ(e.find("ts")->num, 2.0);
        } else if (ph == "C") {
            saw_c = true;
            EXPECT_EQ(e.find("name")->str, "depth");
            EXPECT_DOUBLE_EQ(e.find("args")->find("value")->num, 7.0);
        }
    }
    EXPECT_TRUE(saw_x);
    EXPECT_TRUE(saw_i);
    EXPECT_TRUE(saw_c);
}

TEST(SpanTracer, EventLimitDropsInsteadOfGrowing)
{
    SpanTracer tracer;
    tracer.setEventLimit(2);
    for (int i = 0; i < 5; ++i)
        tracer.instant("t", "e", units::ns(1.0 * i));
    EXPECT_EQ(tracer.eventCount(), 2u);
    EXPECT_EQ(tracer.droppedEvents(), 3u);
    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.trackCount(), 0u);
}

TEST(SpanTracer, EscapesHostileTrackAndEventNames)
{
    SpanTracer tracer;
    tracer.instant("trk\"x\\y", "ev\nz", units::ns(5.0));
    std::ostringstream os;
    tracer.writeChromeJson(os);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), doc, &err)) << err;
    auto names = trackNames(doc);
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names.begin()->second, "trk\"x\\y");
}

// -------------------------------------------- whole-machine scenario

/** Subsystem classes covered by a snapshot's dotted names. */
std::set<std::string>
subsystemsOf(const Snapshot &snap)
{
    static const char *const classes[] = {".eci.", ".mem.", ".net.",
                                          ".fpga.", ".cpu.", ".bmc."};
    std::set<std::string> seen;
    for (const auto &[key, value] : snap)
        for (const char *cls : classes)
            if (key.find(cls) != std::string::npos)
                seen.insert(cls);
    return seen;
}

TEST(ObsDemo, TraceCoversComponentsAndSnapshotCoversSubsystems)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.clear();
    tracer.setEnabled(true);

    auto cfg = platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 128ull << 20;
    cfg.fpga_dram_bytes = 128ull << 20;
    cfg.bitstream = "coyote-shell";
    platform::EnzianMachine m(cfg);
    platform::ObsDemo demo(m);
    demo.run();
    tracer.setEnabled(false);

    EXPECT_GT(demo.eciLines(), 0u);
    EXPECT_GT(demo.tcpBytes(), 0u);
    EXPECT_GT(demo.fpgaJobs(), 0u);

    // The Chrome trace parses back and covers >= 4 distinct component
    // classes: ECI links, DRAM channels, the network, and the FPGA
    // scheduler slots.
    std::ostringstream os;
    tracer.writeChromeJson(os);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), doc, &err)) << err;
    std::set<std::string> component_classes;
    for (const auto &[tid, track] : trackNames(doc)) {
        if (track.find(".eci.") != std::string::npos)
            component_classes.insert("eci");
        if (track.find(".mem.") != std::string::npos)
            component_classes.insert("mem");
        if (track.find(".net.") != std::string::npos)
            component_classes.insert("net");
        if (track.find(".fpga.") != std::string::npos)
            component_classes.insert("fpga");
    }
    EXPECT_GE(trackNames(doc).size(), 4u);
    EXPECT_EQ(component_classes.size(), 4u)
        << "trace must cover ECI, mem, net, and FPGA tracks";

    // The registry snapshot spans >= 6 subsystems with live values.
    Snapshot snap = Registry::global().snapshot();
    EXPECT_GE(subsystemsOf(snap).size(), 6u);
    EXPECT_GT(snap.at(m.config().name + ".eci.link0.messages"), 0.0);
    EXPECT_GT(snap.at(m.config().name + ".net.tcp0.bytes_tx"), 0.0);
    EXPECT_GT(snap.at(m.config().name + ".fpga.sched.jobs_completed"),
              0.0);
    EXPECT_GT(
        snap.at(m.config().name + ".cpu.remote.rtt_ns.count"), 0.0);

    tracer.clear();
}

TEST(ObsDemo, SamplerProducesTimeSeriesOverTheScenario)
{
    auto cfg = platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 128ull << 20;
    cfg.fpga_dram_bytes = 128ull << 20;
    cfg.bitstream = "coyote-shell";
    platform::EnzianMachine m(cfg);
    platform::ObsDemo demo(m);

    Sampler sampler(Registry::global(), m.eventq(), units::ms(100.0));
    sampler.run(m.now() + units::ms(2000.0));
    demo.run();

    EXPECT_GE(sampler.samplesTaken(), 10u);
    // Activity shows up in the series: the last sample's cumulative
    // ECI message count is positive.
    const auto &last = sampler.points().back().total;
    EXPECT_GT(last.at(m.config().name + ".eci.link0.messages"), 0.0);
}

// ------------------------------------------------------- LogHistogram

TEST(LogHistogram, IndexIsMonotoneAndBucketBoundsContainValues)
{
    // Exact below one octave's worth of sub-buckets...
    for (Tick v = 0; v < LogHistogram::kSubBuckets; ++v)
        EXPECT_EQ(LogHistogram::index(v), static_cast<std::size_t>(v));
    // ...log-bucketed above, with every value inside its bucket.
    std::size_t prev = 0;
    for (Tick v = 1; v < (Tick{1} << 40); v = v * 3 + 1) {
        const std::size_t i = LogHistogram::index(v);
        EXPECT_GE(i, prev);
        prev = i;
        EXPECT_GE(v, LogHistogram::bucketLow(i));
        EXPECT_LT(v,
                  LogHistogram::bucketLow(i) +
                      LogHistogram::bucketWidth(i));
    }
    EXPECT_LT(LogHistogram::index(~Tick{0}), LogHistogram::kBuckets);
}

TEST(LogHistogram, QuantileErrorIsBoundedByBucketWidth)
{
    LogHistogram h;
    // 1..10000 us uniformly: quantile(q) should land within one
    // sub-bucket (~3.2% relative) of the exact answer.
    for (int i = 1; i <= 10000; ++i)
        h.record(units::us(static_cast<double>(i)));
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double exact = 10000.0 * q;
        const double got = units::toMicros(h.quantile(q));
        EXPECT_NEAR(got, exact, exact * 0.04) << "q=" << q;
    }
    // Max is exact, not bucket-quantized.
    EXPECT_EQ(h.maxValue(), units::us(10000.0));
    EXPECT_EQ(h.quantile(1.0), units::us(10000.0));
    EXPECT_NEAR(h.meanTicks(), units::us(5000.5), units::us(0.5));
}

TEST(LogHistogram, MergeMatchesCombinedRecording)
{
    LogHistogram a, b, both;
    for (int i = 1; i <= 500; ++i) {
        const Tick v = units::us(static_cast<double>(i * i % 997));
        ((i % 2) ? a : b).record(v);
        both.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.maxValue(), both.maxValue());
    for (double q : {0.25, 0.5, 0.99})
        EXPECT_EQ(a.quantile(q), both.quantile(q));
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.quantile(0.5), 0u);
}

// -------------------------------------------------------- SloRecorder

TEST(SloRecorder, WindowsTumbleOnAbsoluteBoundaries)
{
    SloRecorder::Config cfg;
    cfg.window = units::ms(1.0);
    cfg.slo_latency_us = 100.0;
    SloRecorder rec(cfg);

    // Two completions in window [1ms, 2ms), one in [3ms, 4ms); the
    // empty [2ms, 3ms) window must not appear.
    rec.record(units::ms(1.1), units::ms(1.2)); // 100 us: meets
    rec.record(units::ms(1.2), units::ms(1.5)); // 300 us: violates
    rec.record(units::ms(3.0), units::ms(3.05));
    rec.rollTo(units::ms(4.0));

    ASSERT_EQ(rec.windows().size(), 2u);
    const auto &w0 = rec.windows()[0];
    EXPECT_EQ(w0.start, units::ms(1.0));
    EXPECT_EQ(w0.end, units::ms(2.0));
    EXPECT_EQ(w0.count, 2u);
    EXPECT_EQ(w0.violations, 1u);
    // Burn rate: 50% of requests violated / 1% budget = 50x.
    EXPECT_NEAR(w0.burn_rate, 50.0, 1e-9);
    EXPECT_EQ(rec.windows()[1].start, units::ms(3.0));
    EXPECT_EQ(rec.totalCount(), 3u);
    EXPECT_EQ(rec.totalViolations(), 1u);
}

TEST(SloRecorder, SloMetTracksTheConfiguredQuantile)
{
    SloRecorder::Config cfg;
    cfg.slo_latency_us = 100.0;
    cfg.slo_quantile = 0.90;
    SloRecorder rec(cfg);
    // 95 fast, 5 slow: p90 is fast, so the SLO holds even though the
    // slow tail violates.
    for (int i = 0; i < 95; ++i)
        rec.record(0, units::us(10.0));
    for (int i = 0; i < 5; ++i)
        rec.record(0, units::us(500.0));
    rec.rollTo(units::ms(100.0));
    EXPECT_TRUE(rec.sloMet());
    EXPECT_EQ(rec.totalViolations(), 5u);
    // 5% violated / 10% budget = 0.5.
    EXPECT_NEAR(rec.burnRate(), 0.5, 1e-9);
    EXPECT_GT(rec.p999Us(), rec.p50Us());
}

TEST(SloRecorder, RegistersStatsForItsLifetimeAndWritesCsv)
{
    const auto count_groups = [] {
        std::size_t n = 0;
        for (const StatGroup *g : Registry::global().groups())
            if (g->name().rfind("load.slo.", 0) == 0)
                ++n;
        return n;
    };
    const std::size_t before = count_groups();
    std::ostringstream os;
    {
        SloRecorder::Config cfg;
        cfg.name = "csvtest";
        cfg.window = units::ms(1.0);
        SloRecorder rec(cfg);
        EXPECT_EQ(count_groups(), before + 1);
        rec.record(units::ms(1.0), units::ms(1.1));
        rec.rollTo(units::ms(2.0));
        rec.writeCsv(os);
    }
    EXPECT_EQ(count_groups(), before);

    std::istringstream in(os.str());
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header.substr(0, 30), "window_start_us,window_end_us,");
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_NE(row.find("1000.000,2000.000,1,"), std::string::npos);
}

// ------------------------------------------------- request flow tracing

TEST(FlowScope, PublishesAndRestoresTheAmbientId)
{
    EXPECT_EQ(currentFlowId(), 0u);
    {
        FlowScope outer(7);
        EXPECT_EQ(currentFlowId(), 7u);
        {
            FlowScope inner(9);
            EXPECT_EQ(currentFlowId(), 9u);
        }
        EXPECT_EQ(currentFlowId(), 7u);
    }
    EXPECT_EQ(currentFlowId(), 0u);
}

TEST(SpanTracer, FlowEventsShareAnIdAndParseBack)
{
    SpanTracer tracer;
    tracer.flowBegin("req/1", "request", units::us(1.0), 0xabcd);
    tracer.flowStep("serving.gbdt", "serve", units::us(2.0), 0xabcd);
    tracer.flowEnd("req/1", "request", units::us(3.0), 0xabcd);

    std::ostringstream os;
    tracer.writeChromeJson(os);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), doc, &err)) << err;

    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::string phases;
    for (const json::Value &e : events->arr) {
        const std::string &ph = e.find("ph")->str;
        if (ph != "s" && ph != "t" && ph != "f")
            continue;
        phases += ph;
        EXPECT_EQ(e.find("cat")->str, "flow");
        EXPECT_EQ(e.find("id")->str, "0xabcd");
        if (ph == "f") {
            EXPECT_EQ(e.find("bp")->str, "e");
        }
    }
    EXPECT_EQ(phases, "stf");
}

TEST(SpanTracer, FlowMacrosDropIdZero)
{
    SpanTracer &g = SpanTracer::global();
    g.clear();
    g.setEnabled(true);
    ENZIAN_FLOW_BEGIN("t", "r", units::us(1.0), 0u);
    EXPECT_EQ(g.eventCount(), 0u);
    ENZIAN_FLOW_BEGIN("t", "r", units::us(1.0), 5u);
    EXPECT_EQ(g.eventCount(), 1u);
    g.setEnabled(false);
    g.clear();
}

} // namespace
} // namespace enzian::obs
