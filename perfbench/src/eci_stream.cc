/**
 * @file
 * eci_stream: one default-config machine, built once, runs a long
 * mixed coherent stream. The CPU does cached reads and writes of
 * FPGA-homed lines through its L2 while the FPGA does uncached reads
 * and writes of CPU-homed lines. Each round runs a hot phase (a set
 * that fits the 16 MiB L2) and a cold phase (a set 4x the L2), then
 * reads back every line the round stamped. The L2 starts empty in the
 * digest round; timed rounds start with whatever the previous cold
 * phase left in it.
 */

#include <memory>
#include <unordered_map>

#include "bench.hh"
#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"

namespace perfbench {

using namespace enzian;

namespace {

constexpr std::uint64_t kLine = cache::lineSize;
constexpr Addr kFpgaBase = mem::AddressMap::fpgaDramBase;
/** CPU working sets, FPGA-homed: hot fits the L2, cold is 4x it. */
constexpr std::uint64_t kHotLines = (4ull << 20) / kLine;
constexpr std::uint64_t kColdLines = (64ull << 20) / kLine;
constexpr Addr kHotBase = kFpgaBase;
constexpr Addr kColdBase = kFpgaBase + (256ull << 20);
/** FPGA working set, CPU-homed; each line is touched once a round. */
constexpr std::uint64_t kFpgaLines = (8ull << 20) / kLine;
constexpr Addr kFpgaSetBase = 256ull << 20;

constexpr std::uint64_t kCpuOpsPerPhase = 96 * 1024;
constexpr double kCpuWriteFrac = 0.3;
constexpr double kFpgaWriteFrac = 0.5;
constexpr std::uint32_t kCpuWindow = 16;
constexpr std::uint32_t kFpgaWindow = 8;

struct Op
{
    Addr line;
    bool write;
};

/** The 128 bytes a write of @p line in @p round by op @p seq stores. */
void
stamp(Addr line, std::uint64_t round, std::uint64_t seq, std::uint8_t *out)
{
    std::memcpy(out, &line, 8);
    std::memcpy(out + 8, &round, 8);
    std::memcpy(out + 16, &seq, 8);
    fillRandom(line * 0x9e3779b97f4a7c15ull ^ round << 32 ^ seq, out, 24,
               kLine);
}

/** True if @p data is all zero or a well-formed stamp of @p line. */
bool
plausible(Addr line, const std::uint8_t *data)
{
    std::uint8_t want[kLine];
    bool zero = true;
    for (std::uint64_t i = 0; i < kLine && zero; ++i)
        zero = data[i] == 0;
    if (zero)
        return true;
    Addr l = 0;
    std::uint64_t round = 0, seq = 0;
    std::memcpy(&l, data, 8);
    std::memcpy(&round, data + 8, 8);
    std::memcpy(&seq, data + 16, 8);
    if (l != line)
        return false;
    stamp(line, round, seq, want);
    return std::memcmp(want, data, kLine) == 0;
}

/** The generated inputs: one round's streams, replayed every round. */
struct Streams
{
    std::vector<Op> cpuHot, cpuCold, fpgaHot, fpgaCold;
};

Streams
generate(std::uint64_t seed)
{
    Streams s;
    Rng rng(subSeed(seed, 11));
    auto cpu = [&](std::vector<Op> &out, Addr base, std::uint64_t lines) {
        out.reserve(kCpuOpsPerPhase);
        for (std::uint64_t i = 0; i < kCpuOpsPerPhase; ++i)
            out.push_back(Op{base + rng.below(lines) * kLine,
                             rng.unit() < kCpuWriteFrac});
    };
    cpu(s.cpuHot, kHotBase, kHotLines);
    cpu(s.cpuCold, kColdBase, kColdLines);
    // The FPGA walks a permutation of its set, half per phase, so no
    // two of its uncached operations ever share a line in a round.
    std::vector<Addr> perm(kFpgaLines);
    for (std::uint64_t i = 0; i < kFpgaLines; ++i)
        perm[i] = kFpgaSetBase + i * kLine;
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.below(i)]);
    for (std::uint64_t i = 0; i < kFpgaLines; ++i)
        (i < kFpgaLines / 2 ? s.fpgaHot : s.fpgaCold)
            .push_back(Op{perm[i], rng.unit() < kFpgaWriteFrac});
    return s;
}

/**
 * A closed-loop issuer: keeps `window` operations of one agent in
 * flight, each with its own 128-byte buffer slot.
 */
class Issuer
{
  public:
    Issuer(eci::RemoteAgent &agent, bool cached, std::uint32_t window,
           Result &res, std::uint64_t round)
        : agent_(agent), cached_(cached), window_(window), res_(res),
          round_(round), bufs_(window * kLine)
    {
    }

    /** Start issuing @p ops (must outlive the run). */
    void
    start(const std::vector<Op> &ops, std::uint64_t seqBase)
    {
        ops_ = &ops;
        next_ = 0;
        seqBase_ = seqBase;
        for (std::uint32_t s = 0; s < window_; ++s)
            issue(s);
    }

    std::uint64_t completed() const { return completed_; }

  private:
    void
    issue(std::uint32_t slot)
    {
        if (next_ >= ops_->size())
            return;
        const std::uint64_t idx = next_++;
        const Op op = (*ops_)[idx];
        std::uint8_t *buf = &bufs_[slot * kLine];
        ++res_.attempted;
        auto done = [this, slot, op, buf](Tick) {
            ++completed_;
            if (!op.write && !plausible(op.line, buf))
                ++res_.failed;
            issue(slot);
        };
        Span s(SpanKind::EciIssue);
        if (op.write) {
            stamp(op.line, round_, seqBase_ + idx, buf);
            if (cached_)
                agent_.writeLine(op.line, buf, done);
            else
                agent_.writeLineUncached(op.line, buf, done);
        } else if (cached_) {
            agent_.readLine(op.line, buf, done);
        } else {
            agent_.readLineUncached(op.line, buf, done);
        }
    }

    eci::RemoteAgent &agent_;
    bool cached_;
    std::uint32_t window_;
    Result &res_;
    std::uint64_t round_;
    std::vector<std::uint8_t> bufs_;
    const std::vector<Op> *ops_ = nullptr;
    std::uint64_t next_ = 0;
    std::uint64_t seqBase_ = 0;
    std::uint64_t completed_ = 0;
};

/** Read back every line in @p last with @p agent; compare the stamp. */
std::uint64_t
readBack(platform::EnzianMachine &m, eci::RemoteAgent &agent, bool cached,
         const std::vector<std::pair<Addr, std::uint64_t>> &last,
         std::uint64_t round, Result &res, std::uint64_t &events)
{
    std::vector<std::uint8_t> got(last.size() * kLine);
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < last.size(); ++i) {
        ++res.attempted;
        Span s(SpanKind::EciIssue);
        auto cb = [&done](Tick) { ++done; };
        if (cached)
            agent.readLine(last[i].first, &got[i * kLine], cb);
        else
            agent.readLineUncached(last[i].first, &got[i * kLine], cb);
    }
    {
        Span s(SpanKind::SimRun);
        events += m.run();
    }
    res.failed += last.size() - done;
    std::uint8_t want[kLine];
    for (std::size_t i = 0; i < last.size(); ++i) {
        stamp(last[i].first, round, last[i].second, want);
        if (std::memcmp(want, &got[i * kLine], kLine) != 0)
            ++res.failed;
    }
    return done;
}

/** (line, seq) of the last write to each line, in first-write order. */
std::vector<std::pair<Addr, std::uint64_t>>
lastWrites(const std::vector<const std::vector<Op> *> &phases)
{
    std::vector<std::pair<Addr, std::uint64_t>> out;
    std::unordered_map<Addr, std::size_t> pos;
    std::uint64_t seq = 0;
    for (const auto *ops : phases) {
        for (const Op &op : *ops) {
            if (op.write) {
                auto [it, fresh] = pos.emplace(op.line, out.size());
                if (fresh)
                    out.emplace_back(op.line, seq);
                else
                    out[it->second].second = seq;
            }
            ++seq;
        }
    }
    return out;
}

} // namespace

Result
runEciStream(const Options &opts)
{
    Result res;
    Streams streams;
    std::vector<std::pair<Addr, std::uint64_t>> cpuLast, fpgaLast;
    std::unique_ptr<platform::EnzianMachine> m;

    runSetup(opts, res, [&]() {
        if (m) {
            Span s(SpanKind::PlatformTeardown);
            m.reset();
        }
        streams = generate(opts.seed);
        cpuLast = lastWrites({&streams.cpuHot, &streams.cpuCold});
        fpgaLast = lastWrites({&streams.fpgaHot, &streams.fpgaCold});
        Span s(SpanKind::PlatformBuild);
        m = std::make_unique<platform::EnzianMachine>(
            platform::enzianDefaultConfig());
    });

    Counters counters;
    std::uint64_t round = 0;
    timedRounds(opts, res, [&](bool digest_round) {
        ++round;
        const obs::Snapshot before =
            digest_round ? obs::Registry::global().snapshot()
                         : obs::Snapshot{};
        std::uint64_t ops = 0, events = 0;
        Issuer cpu(m->cpuRemote(), true, kCpuWindow, res, round);
        Issuer fpga(m->fpgaRemote(), false, kFpgaWindow, res, round);

        // Hot phase, then cold phase; the CPU's sequence numbers run
        // on across phases so lastWrites() matches them.
        const std::uint64_t h0 = m->l2().hits(), m0 = m->l2().misses();
        cpu.start(streams.cpuHot, 0);
        fpga.start(streams.fpgaHot, 0);
        {
            Span s(SpanKind::SimRun);
            events += m->run();
        }
        const std::uint64_t h1 = m->l2().hits(), m1 = m->l2().misses();
        const std::uint64_t hot_done = cpu.completed() + fpga.completed();
        Issuer cpu2(m->cpuRemote(), true, kCpuWindow, res, round);
        Issuer fpga2(m->fpgaRemote(), false, kFpgaWindow, res, round);
        cpu2.start(streams.cpuCold, streams.cpuHot.size());
        fpga2.start(streams.fpgaCold, streams.fpgaHot.size());
        {
            Span s(SpanKind::SimRun);
            events += m->run();
        }
        const std::uint64_t h2 = m->l2().hits(), m2 = m->l2().misses();
        ops = hot_done + cpu2.completed() + fpga2.completed();
        const std::uint64_t issued =
            2 * kCpuOpsPerPhase + kFpgaLines;
        res.failed += issued - ops;

        ops += readBack(*m, m->cpuRemote(), true, cpuLast, round, res,
                        events);
        ops += readBack(*m, m->fpgaRemote(), false, fpgaLast, round, res,
                        events);

        if (digest_round) {
            const obs::Snapshot delta =
                obs::diff(obs::Registry::global().snapshot(), before);
            counters.absorb(delta);
            counters.report(res.layer, ops);
            res.digest.snapshot(delta);
            res.digest.u64(ops);
            res.layer["sim.events"] = static_cast<double>(events);
            res.layer["sim.events_per_op"] =
                static_cast<double>(events) / static_cast<double>(ops);
            auto ratio = [](std::uint64_t h, std::uint64_t mi) {
                return h + mi ? static_cast<double>(h) /
                                    static_cast<double>(h + mi)
                              : 0.0;
            };
            res.layer["cache.l2_hit_ratio_hot"] = ratio(h1 - h0, m1 - m0);
            res.layer["cache.l2_hit_ratio_cold"] = ratio(h2 - h1, m2 - m1);
        }
        return RoundOut{ops, events};
    });
    res.layer["platform.builds"] = 0.0;
    timeExport(opts, res);
    return res;
}

} // namespace perfbench
