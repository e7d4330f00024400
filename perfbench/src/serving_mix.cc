/**
 * @file
 * serving_mix: a GBDT inference testbed and a TCP echo testbed, each
 * driven by open-loop Poisson arrivals (load::LoadGen) at two fixed
 * offered rates, one well below and one near the service's knee.
 * Latency is timed from each request's due arrival tick. The testbeds
 * are wired here, from the same parts load::ServingTestbed uses,
 * because the benchmark's service drivers must see the outputs to
 * check them: sampled GBDT batches are bit-compared with the scalar
 * ensemble, and every TCP flow must echo exactly the bytes it was sent.
 */

#include <deque>
#include <memory>
#include <optional>

#include "accel/gbdt.hh"
#include "accel/gbdt_engine.hh"
#include "base/logging.hh"
#include "bench.hh"
#include "load/load_gen.hh"
#include "net/switch.hh"
#include "net/tcp_stack.hh"
#include "obs/slo.hh"
#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"

namespace perfbench {

using namespace enzian;

namespace {

constexpr std::uint64_t kBatch = 512;
constexpr std::uint64_t kPoolBatches = 8;
/** One request in this many has its GBDT scores checked. */
constexpr std::uint64_t kCheckEvery = 64;
constexpr std::uint32_t kTcpFlows = 4;
constexpr std::uint64_t kTcpBytes = 2048;

/** One operating point: a service at a fixed offered rate. */
struct Point
{
    const char *name; ///< metric prefix, e.g. "gbdt_lo"
    bool gbdt;
    double rateRps;
    Tick duration;
};

// Knees on the seed model: GBDT ~69 krps, TCP echo ~790 krps.
constexpr Point kPoints[] = {
    {"gbdt_lo", true, 35e3, units::ms(20.0)},
    {"gbdt_hi", true, 62e3, units::ms(20.0)},
    {"tcp_lo", false, 400e3, units::ms(4.0)},
    {"tcp_hi", false, 720e3, units::ms(4.0)},
};

/** GBDT requests over a fixed tuple pool; sampled outputs checked. */
class CheckedGbdtDriver final : public load::ServiceDriver
{
  public:
    CheckedGbdtDriver(accel::GbdtEngine &engine,
                      const accel::GbdtEnsemble &ens, std::uint64_t seed)
        : engine_(engine),
          tuples_(accel::makeTuples(seed, kBatch * kPoolBatches,
                                    engine.config().features))
    {
        const std::uint32_t f = engine.config().features;
        expect_.resize(kBatch * kPoolBatches);
        for (std::size_t i = 0; i < expect_.size(); ++i)
            expect_[i] = ens.predict(&tuples_[i * f]);
    }

    void
    issue(const load::Request &req, Done done) override
    {
        const std::uint64_t slot = req.id % kPoolBatches;
        const float *batch =
            &tuples_[slot * kBatch * engine_.config().features];
        std::shared_ptr<std::vector<float>> out;
        if (req.id % kCheckEvery == 0)
            out = std::make_shared<std::vector<float>>();
        Span s(SpanKind::AccelIssue);
        engine_.serve(batch, kBatch, out.get(),
                      [this, out, slot, done = std::move(done)](Tick,
                                                                Tick end) {
                          if (out && std::memcmp(out->data(),
                                                 &expect_[slot * kBatch],
                                                 kBatch * sizeof(float)))
                              ++bad;
                          done(end);
                      });
    }

    const char *kind() const override { return "gbdt"; }

    std::uint64_t bad = 0;

  private:
    accel::GbdtEngine &engine_;
    std::vector<float> tuples_;
    std::vector<float> expect_;
};

/** TCP echo round trips over persistent flows, byte-accounted. */
class CheckedTcpDriver final : public load::ServiceDriver
{
  public:
    CheckedTcpDriver(net::TcpStack &client, net::TcpStack &server)
        : client_(client), server_(server), flows_(kTcpFlows)
    {
        for (Flow &f : flows_)
            f.id = client_.connect(server_);
        server_.setReceiveCallback([this](std::uint32_t id,
                                          std::uint64_t n) {
            Flow &f = flowOf(id);
            f.serverRx += n;
            while (f.serverRx - f.echoed * kTcpBytes >= kTcpBytes) {
                ++f.echoed;
                Span s(SpanKind::NetIssue);
                server_.send(id, kTcpBytes, net::TcpStack::Done());
            }
        });
        client_.setReceiveCallback([this](std::uint32_t id,
                                          std::uint64_t n) {
            Flow &f = flowOf(id);
            f.clientRx += n;
            while (f.clientRx - f.answered * kTcpBytes >= kTcpBytes &&
                   !f.waiting.empty()) {
                ++f.answered;
                Done d = std::move(f.waiting.front());
                f.waiting.pop_front();
                d(client_.now());
            }
        });
    }

    void
    issue(const load::Request &req, Done done) override
    {
        Flow &f = flows_[req.id % flows_.size()];
        f.waiting.push_back(std::move(done));
        ++f.sent;
        Span s(SpanKind::NetIssue);
        client_.send(f.id, kTcpBytes, net::TcpStack::Done());
    }

    const char *kind() const override { return "tcp"; }

    /**
     * Flows whose byte counts disagree with what was sent, after the
     * machine drained: the server must have received and echoed every
     * request in full, and the client must have read every echo.
     */
    std::uint64_t
    badFlows() const
    {
        std::uint64_t bad = 0;
        for (const Flow &f : flows_) {
            const std::uint64_t want = f.sent * kTcpBytes;
            if (f.serverRx != want || f.clientRx != want ||
                server_.bytesReceived(f.id) != want ||
                client_.bytesReceived(f.id) != want ||
                f.echoed != f.sent || f.answered != f.sent)
                ++bad;
        }
        return bad;
    }

  private:
    struct Flow
    {
        std::uint32_t id = 0;
        std::uint64_t sent = 0, echoed = 0, answered = 0;
        std::uint64_t serverRx = 0, clientRx = 0;
        std::deque<Done> waiting;
    };

    Flow &
    flowOf(std::uint32_t id)
    {
        for (Flow &f : flows_)
            if (f.id == id)
                return f;
        ENZIAN_ASSERT(false, "unknown tcp flow %u", id);
        return flows_.front();
    }

    net::TcpStack &client_;
    net::TcpStack &server_;
    std::vector<Flow> flows_;
};

/** The two testbeds. */
struct Beds
{
    std::unique_ptr<platform::EnzianMachine> gbdtMachine;
    std::unique_ptr<accel::GbdtEnsemble> ensemble;
    std::unique_ptr<accel::GbdtEngine> engine;
    std::unique_ptr<CheckedGbdtDriver> gbdt;

    std::unique_ptr<platform::EnzianMachine> tcpMachine;
    std::unique_ptr<net::Switch> sw;
    std::unique_ptr<net::TcpStack> client, server;
    std::unique_ptr<CheckedTcpDriver> tcp;

    void
    build(std::uint64_t seed)
    {
        Span s(SpanKind::PlatformBuild);
        gbdtMachine = std::make_unique<platform::EnzianMachine>(
            platform::servingMachineConfig());
        ensemble = std::make_unique<accel::GbdtEnsemble>(
            accel::makeEnsemble(subSeed(seed, 31),
                                platform::params::gbdtTrees,
                                platform::params::gbdtDepth,
                                platform::params::gbdtFeatures));
        engine = std::make_unique<accel::GbdtEngine>(
            "bench.gbdt", gbdtMachine->eventq(), *ensemble,
            platform::gbdtPlatformConfig("Enzian", 1));
        gbdt = std::make_unique<CheckedGbdtDriver>(*engine, *ensemble,
                                                   subSeed(seed, 32));

        tcpMachine = std::make_unique<platform::EnzianMachine>(
            platform::servingMachineConfig());
        EventQueue &eq = tcpMachine->eventq();
        sw = std::make_unique<net::Switch>("bench.sw", eq, 2,
                                           net::Switch::Config{});
        client = std::make_unique<net::TcpStack>(
            "bench.tcp.client", eq, *sw, net::hostTcpConfig(0));
        server = std::make_unique<net::TcpStack>(
            "bench.tcp.server", eq, *sw, net::fpgaTcpConfig(1, 250e6));
        tcp = std::make_unique<CheckedTcpDriver>(*client, *server);
    }

    void
    destroy()
    {
        Span s(SpanKind::PlatformTeardown);
        tcp.reset();
        server.reset();
        client.reset();
        sw.reset();
        tcpMachine.reset();
        gbdt.reset();
        engine.reset();
        ensemble.reset();
        gbdtMachine.reset();
    }
};

} // namespace

Result
runServingMix(const Options &opts)
{
    Result res;
    Beds beds;
    std::vector<std::uint64_t> arrivalSeeds;

    runSetup(opts, res, [&]() {
        if (beds.engine)
            beds.destroy();
        arrivalSeeds.clear();
        for (std::size_t i = 0; i < std::size(kPoints); ++i)
            arrivalSeeds.push_back(subSeed(opts.seed, 40 + i));
        beds.build(opts.seed);
    });

    Counters counters;
    timedRounds(opts, res, [&](bool digest_round) {
        std::uint64_t ops = 0, events = 0;
        for (std::size_t i = 0; i < std::size(kPoints); ++i) {
            const Point &pt = kPoints[i];
            platform::EnzianMachine &m =
                pt.gbdt ? *beds.gbdtMachine : *beds.tcpMachine;
            load::ServiceDriver &drv =
                pt.gbdt ? static_cast<load::ServiceDriver &>(*beds.gbdt)
                        : *beds.tcp;
            const obs::Snapshot before =
                digest_round ? obs::Registry::global().snapshot()
                             : obs::Snapshot{};
            const std::uint64_t bad0 = pt.gbdt ? beds.gbdt->bad : 0;

            obs::SloRecorder::Config sc;
            sc.name = pt.name;
            obs::SloRecorder slo(sc);
            load::LoadGen::Config lc;
            lc.arrival.kind = load::ArrivalKind::Poisson;
            lc.arrival.rate_rps = pt.rateRps;
            lc.arrival.seed = arrivalSeeds[i];
            lc.duration = pt.duration;
            std::optional<load::LoadGen> gen;
            {
                Span s(SpanKind::LoadStart);
                gen.emplace("bench.loadgen", m.eventq(), drv, slo, lc);
                gen->start();
            }
            {
                Span s(SpanKind::SimRun);
                events += m.run();
            }
            slo.rollTo(m.now());

            const std::uint64_t offered = gen->offeredCount();
            const std::uint64_t completed = gen->completedCount();
            ops += completed;
            res.attempted += offered;
            res.failed += offered - completed;
            if (pt.gbdt)
                res.failed += beds.gbdt->bad - bad0;

            if (digest_round) {
                const obs::Snapshot delta = obs::diff(
                    obs::Registry::global().snapshot(), before);
                counters.absorb(delta);
                res.digest.snapshot(delta);
                const std::string p = std::string("load.") + pt.name;
                res.layer[p + "_sim_p50_us"] = slo.p50Us();
                res.layer[p + "_sim_p99_us"] = slo.p99Us();
                res.digest.f64(slo.p50Us());
                res.digest.f64(slo.p99Us());
                res.digest.f64(slo.maxUs());
            }
        }
        // Flow byte counts are cumulative, so one check per round
        // covers every echo so far.
        res.failed += beds.tcp->badFlows();
        if (digest_round) {
            counters.report(res.layer, ops);
            res.layer["sim.events"] = static_cast<double>(events);
            res.layer["sim.events_per_op"] =
                static_cast<double>(events) / static_cast<double>(ops);
        }
        return RoundOut{ops, events};
    });
    res.layer["platform.builds"] = 0.0;
    timeExport(opts, res);
    beds.destroy();
    return res;
}

} // namespace perfbench
