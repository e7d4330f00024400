/**
 * @file
 * link_sweep: the Figure 6 sweep (ECI one link vs PCIe x16 Gen3,
 * 128 B to 16 KiB, read and write, latency and throughput) plus the
 * section 5.1 two-socket reference, with a fresh quiet machine per
 * point as users and the fig06 bench build them. One round is one
 * full pass. The seed fixes the order of the points and the bytes the
 * transfers carry; the simulated figures do not depend on either.
 */

#include <cmath>
#include <memory>
#include <optional>

#include "bench.hh"
#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"

namespace perfbench {

using namespace enzian;

namespace {

constexpr std::uint32_t kSizesLog2Lo = 7;  // 128 B
constexpr std::uint32_t kSizesLog2Hi = 14; // 16 KiB
/** Read latency alone goes on to here, so the crossover is measured. */
constexpr std::uint32_t kCrossLog2Hi = 16; // 64 KiB
constexpr std::uint32_t kThroughputRuns = 200;
constexpr std::uint32_t kThroughputInflight = 4;
constexpr std::uint32_t kRefRuns = 400;
constexpr std::uint32_t kRefInflight = 8;
constexpr std::uint64_t kLine = cache::lineSize;
/** ECI transfers walk disjoint buffers inside this CPU-memory window. */
constexpr Addr kEciWindow = 192ull << 20;
/** PCIe transfers use these fixed offsets on both ends. */
constexpr Addr kDmaHostOff = 0x1000000;
constexpr Addr kDmaDevOff = 0;

enum class Series : std::uint8_t { EciRd, EciWr, PcieRd, PcieWr, RefLat, RefBw };

/** One measurement point: a series at a size. */
struct Point
{
    Series series;
    std::uint64_t bytes;
    std::uint32_t index; ///< position in the canonical order
};

/** Past 16 KiB only the read latency is measured (crossover points). */
bool
latencyOnly(const Point &pt)
{
    return pt.bytes > (1ull << kSizesLog2Hi);
}

/** Per-pass context: accounting, counters and the digest. */
struct PassCtx
{
    const Options *opts = nullptr;
    Result *res = nullptr;
    Counters *counters = nullptr;
    bool digestRound = false;
    bool exportTimed = false;
    std::uint64_t stampSeed = 0;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
    std::uint64_t builds = 0;
};

/** 128-byte stamp for transfer @p n of point @p p. */
void
makeStamp(std::uint64_t seed, std::uint32_t p, std::uint64_t n,
          std::uint8_t *out)
{
    fillRandom(seed ^ (static_cast<std::uint64_t>(p) << 40) ^ n, out, 0,
               kLine);
}

platform::EnzianMachine::Config
sweepConfig(Series s)
{
    auto cfg = s == Series::RefLat || s == Series::RefBw
                   ? platform::twoSocketThunderXConfig()
                   : platform::enzianDefaultConfig();
    if (s != Series::RefLat && s != Series::RefBw)
        cfg.policy = eci::BalancePolicy::SingleLink; // one link
    cfg.cpu_dram_bytes = 256ull << 20;
    cfg.fpga_dram_bytes = 256ull << 20;
    return cfg;
}

/** Fold the registry state of a live system into the round's digest. */
void
absorbRegistry(PassCtx &ctx)
{
    if (!ctx.digestRound)
        return;
    if (ctx.opts && !ctx.exportTimed) {
        timeExport(*ctx.opts, *ctx.res);
        ctx.exportTimed = true;
    }
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    ctx.counters->absorb(snap);
    ctx.res->digest.snapshot(snap);
}

/**
 * Issue @p runs transfers of @p bytes with @p inflight in flight on a
 * fresh ECI machine (FPGA reads or writes CPU memory, uncached); one
 * transfer's latency is measured when runs == 1. @return latency (us)
 * when runs == 1, else throughput (GiB/s).
 */
double
eciPoint(PassCtx &ctx, const Point &pt, std::uint32_t runs,
         std::uint32_t inflight)
{
    // The two-socket bandwidth reference writes, as fig06 does.
    const bool write =
        pt.series == Series::EciWr || pt.series == Series::RefBw;
    std::unique_ptr<platform::EnzianMachine> m;
    {
        Span s(SpanKind::PlatformBuild);
        m = std::make_unique<platform::EnzianMachine>(
            sweepConfig(pt.series));
    }
    ++ctx.builds;
    const std::uint64_t lines = (pt.bytes + kLine - 1) / kLine;

    // One stamp per transfer, checked on the transfer's last line.
    std::vector<std::uint8_t> stamps(runs * kLine);
    std::vector<std::uint8_t> got(runs * kLine, 0);
    std::vector<Addr> lastLine(runs);
    Addr next_base = 0;
    for (std::uint32_t n = 0; n < runs; ++n) {
        makeStamp(ctx.stampSeed, pt.index, n, &stamps[n * kLine]);
        lastLine[n] = next_base + (lines - 1) * kLine;
        next_base = (next_base + lines * kLine) % kEciWindow;
        if (!write)
            m->cpuMem().store().write(lastLine[n], &stamps[n * kLine],
                                      kLine);
    }

    const Tick start = m->now();
    Tick last = 0;
    std::uint32_t issued = 0, completed = 0;
    std::function<void()> issue = [&]() {
        if (issued >= runs)
            return;
        const std::uint32_t n = issued++;
        const Addr base = lastLine[n] - (lines - 1) * kLine;
        auto remaining = std::make_shared<std::uint64_t>(lines);
        auto cb = [&, remaining](Tick t) {
            last = std::max(last, t);
            if (--*remaining == 0) {
                ++completed;
                issue();
            }
        };
        Span s(SpanKind::EciIssue);
        for (std::uint64_t i = 0; i < lines; ++i) {
            const Addr line = base + i * kLine;
            const bool tail = i + 1 == lines;
            if (write)
                m->fpgaRemote().writeLineUncached(
                    line, &stamps[(tail ? n : 0) * kLine], cb);
            else
                m->fpgaRemote().readLineUncached(
                    line, tail ? &got[n * kLine] : nullptr, cb);
        }
    };
    for (std::uint32_t i = 0; i < inflight && i < runs; ++i)
        issue();
    {
        Span s(SpanKind::SimRun);
        ctx.events += m->run();
    }

    ctx.res->attempted += runs;
    ctx.ops += completed;
    ctx.res->failed += runs - completed;
    for (std::uint32_t n = 0; n < runs; ++n) {
        const std::uint8_t *want = &stamps[n * kLine];
        if (write) {
            std::uint8_t mem[kLine];
            m->cpuMem().store().read(lastLine[n], mem, kLine);
            if (std::memcmp(mem, want, kLine) != 0)
                ++ctx.res->failed;
        } else if (std::memcmp(&got[n * kLine], want, kLine) != 0) {
            ++ctx.res->failed;
        }
    }
    absorbRegistry(ctx);
    {
        Span s(SpanKind::PlatformTeardown);
        m.reset();
    }
    const double secs = units::toSeconds(last - start);
    if (runs == 1)
        return units::toMicros(last - start);
    return static_cast<double>(pt.bytes) * runs / secs /
           static_cast<double>(units::GiB);
}

/** PCIe DMA counterpart of eciPoint on a fresh Alveo u250 system. */
double
pciePoint(PassCtx &ctx, const Point &pt, std::uint32_t runs,
          std::uint32_t inflight)
{
    // Paper "read": the device reads host memory (host -> device).
    const bool to_host = pt.series == Series::PcieWr;
    std::optional<platform::PcieAccelSystem> sys;
    {
        Span s(SpanKind::PlatformBuild);
        sys.emplace(platform::makePcieAccelerator("alveo-u250"));
    }
    ++ctx.builds;
    mem::MemoryController &src = to_host ? *sys->device : *sys->host;
    mem::MemoryController &dst = to_host ? *sys->host : *sys->device;
    const Addr src_off = to_host ? kDmaDevOff : kDmaHostOff;
    const Addr dst_off = to_host ? kDmaHostOff : kDmaDevOff;
    const Addr tail = (pt.bytes - 1) / kLine * kLine;
    std::uint8_t stamp[kLine];
    makeStamp(ctx.stampSeed, pt.index, 0, stamp);
    src.store().write(src_off + tail, stamp,
                      std::min<std::uint64_t>(kLine, pt.bytes - tail));

    const Tick start = sys->eq->now();
    Tick last = 0;
    std::uint32_t issued = 0, completed = 0;
    std::function<void()> issue = [&]() {
        if (issued >= runs)
            return;
        ++issued;
        auto cb = [&](Tick t) {
            last = std::max(last, t);
            ++completed;
            issue();
        };
        Span s(SpanKind::PcieIssue);
        if (to_host)
            sys->dma->deviceToHost(src_off, dst_off, pt.bytes, cb);
        else
            sys->dma->hostToDevice(src_off, dst_off, pt.bytes, cb);
    };
    for (std::uint32_t i = 0; i < inflight && i < runs; ++i)
        issue();
    {
        Span s(SpanKind::SimRun);
        ctx.events += sys->eq->run();
    }

    ctx.res->attempted += runs;
    ctx.ops += completed;
    ctx.res->failed += runs - completed;
    std::uint8_t got[kLine];
    const std::uint64_t n = std::min<std::uint64_t>(kLine, pt.bytes - tail);
    dst.store().read(dst_off + tail, got, n);
    if (std::memcmp(got, stamp, n) != 0)
        ++ctx.res->failed;
    absorbRegistry(ctx);
    {
        Span s(SpanKind::PlatformTeardown);
        sys.reset();
    }
    if (runs == 1)
        return units::toMicros(last - start);
    return static_cast<double>(pt.bytes) * runs /
           units::toSeconds(last - start) /
           static_cast<double>(units::GiB);
}

/**
 * The canonical point list: every size and series, the read-latency
 * points past 16 KiB, then the reference.
 */
std::vector<Point>
canonicalPoints()
{
    std::vector<Point> pts;
    for (std::uint32_t p = kSizesLog2Lo; p <= kSizesLog2Hi; ++p)
        for (Series s : {Series::EciRd, Series::EciWr, Series::PcieRd,
                         Series::PcieWr})
            pts.push_back(Point{s, 1ull << p, 0});
    for (std::uint32_t p = kSizesLog2Hi + 1; p <= kCrossLog2Hi; ++p)
        for (Series s : {Series::EciRd, Series::PcieRd})
            pts.push_back(Point{s, 1ull << p, 0});
    pts.push_back(Point{Series::RefLat, kLine, 0});
    pts.push_back(Point{Series::RefBw, 16384, 0});
    for (std::uint32_t i = 0; i < pts.size(); ++i)
        pts[i].index = i;
    return pts;
}

/** One full pass over @p order; fills the figures. */
SweepFigures
sweepPass(PassCtx &ctx, const std::vector<Point> &order)
{
    const std::size_t nsizes = kSizesLog2Hi - kSizesLog2Lo + 1;
    SweepFigures f;
    for (std::uint32_t p = kSizesLog2Lo; p <= kSizesLog2Hi; ++p)
        f.sizes.push_back(1ull << p);
    for (auto *v : {&f.eciRdLat, &f.eciWrLat, &f.pcieRdLat, &f.pcieWrLat,
                    &f.eciRdBw, &f.eciWrBw, &f.pcieRdBw, &f.pcieWrBw})
        v->assign(nsizes, 0.0);
    for (std::uint32_t p = kSizesLog2Hi + 1; p <= kCrossLog2Hi; ++p)
        f.crossSizes.push_back(1ull << p);
    f.eciRdLatCross.assign(f.crossSizes.size(), 0.0);
    f.pcieRdLatCross.assign(f.crossSizes.size(), 0.0);

    for (const Point &pt : order) {
        const std::size_t si = static_cast<std::size_t>(
            std::log2(static_cast<double>(pt.bytes))) - kSizesLog2Lo;
        if (latencyOnly(pt)) {
            const bool eci = pt.series == Series::EciRd;
            (eci ? f.eciRdLatCross : f.pcieRdLatCross)[si - nsizes] =
                eci ? eciPoint(ctx, pt, 1, 1) : pciePoint(ctx, pt, 1, 1);
            continue;
        }
        double lat = 0.0, bw = 0.0;
        switch (pt.series) {
          case Series::EciRd:
          case Series::EciWr:
            lat = eciPoint(ctx, pt, 1, 1);
            bw = eciPoint(ctx, pt, kThroughputRuns, kThroughputInflight);
            break;
          case Series::PcieRd:
          case Series::PcieWr:
            lat = pciePoint(ctx, pt, 1, 1);
            bw = pciePoint(ctx, pt, kThroughputRuns, kThroughputInflight);
            break;
          case Series::RefLat:
            f.twoSocketNs = eciPoint(ctx, pt, 1, 1) * 1000.0;
            break;
          case Series::RefBw:
            f.twoSocketGib = eciPoint(ctx, pt, kRefRuns, kRefInflight);
            break;
        }
        switch (pt.series) {
          case Series::EciRd:
            f.eciRdLat[si] = lat, f.eciRdBw[si] = bw;
            break;
          case Series::EciWr:
            f.eciWrLat[si] = lat, f.eciWrBw[si] = bw;
            break;
          case Series::PcieRd:
            f.pcieRdLat[si] = lat, f.pcieRdBw[si] = bw;
            break;
          case Series::PcieWr:
            f.pcieWrLat[si] = lat, f.pcieWrBw[si] = bw;
            break;
          default:
            break;
        }
    }
    if (ctx.digestRound) {
        for (const auto *v : {&f.eciRdLat, &f.eciWrLat, &f.pcieRdLat,
                              &f.pcieWrLat, &f.eciRdBw, &f.eciWrBw,
                              &f.pcieRdBw, &f.pcieWrBw, &f.eciRdLatCross,
                              &f.pcieRdLatCross})
            for (double x : *v)
                ctx.res->digest.f64(x);
        ctx.res->digest.f64(f.twoSocketNs);
        ctx.res->digest.f64(f.twoSocketGib);
    }
    return f;
}

} // namespace

SweepFigures
referencePass()
{
    Result scratch;
    Counters counters;
    PassCtx ctx;
    ctx.res = &scratch;
    ctx.counters = &counters;
    return sweepPass(ctx, canonicalPoints());
}

Result
runLinkSweep(const Options &opts)
{
    Result res;
    Counters counters;
    std::vector<Point> order;
    std::uint64_t stamp_seed = 0;

    // Setup is input generation plus one machine build and teardown:
    // the allocator and page-fault warm-up users pay once.
    runSetup(opts, res, [&]() {
        order = canonicalPoints();
        Rng rng(subSeed(opts.seed, 1));
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        stamp_seed = subSeed(opts.seed, 2);
        std::unique_ptr<platform::EnzianMachine> m;
        {
            Span s(SpanKind::PlatformBuild);
            m = std::make_unique<platform::EnzianMachine>(
                sweepConfig(Series::EciRd));
        }
        Span s(SpanKind::PlatformTeardown);
        m.reset();
    });

    SweepFigures figures;
    std::uint64_t builds = 0;
    timedRounds(opts, res, [&](bool digest_round) {
        PassCtx ctx;
        ctx.opts = &opts;
        ctx.res = &res;
        ctx.counters = &counters;
        ctx.digestRound = digest_round;
        ctx.stampSeed = stamp_seed;
        SweepFigures f = sweepPass(ctx, order);
        if (digest_round) {
            figures = f;
            counters.report(res.layer, ctx.ops);
            res.layer["sim.events"] = static_cast<double>(ctx.events);
            res.layer["sim.events_per_op"] =
                static_cast<double>(ctx.events) /
                static_cast<double>(ctx.ops);
            builds = ctx.builds;
        }
        return RoundOut{ctx.ops, ctx.events};
    });
    res.layer["platform.builds"] = static_cast<double>(builds);
    res.paperErrPct = paperError(figures, &res.layer);
    return res;
}

// ---------------------------------------------------------------------
// Paper reference table (see README.md, "Reference table")
// ---------------------------------------------------------------------

namespace {

/**
 * ECI/PCIe read-latency crossover (bytes): the size where the ECI
 * latency line meets the PCIe one, interpolated between the measured
 * points (128 B to 64 KiB) that bracket it. The largest measured size
 * if ECI still wins there, the smallest if PCIe already wins there.
 */
double
crossoverBytes(const SweepFigures &f)
{
    std::vector<double> size, diff; // diff < 0 while ECI wins
    for (std::size_t i = 0; i < f.sizes.size(); ++i) {
        size.push_back(static_cast<double>(f.sizes[i]));
        diff.push_back(f.eciRdLat[i] - f.pcieRdLat[i]);
    }
    for (std::size_t i = 0; i < f.crossSizes.size(); ++i) {
        size.push_back(static_cast<double>(f.crossSizes[i]));
        diff.push_back(f.eciRdLatCross[i] - f.pcieRdLatCross[i]);
    }
    if (diff[0] >= 0.0)
        return size[0];
    for (std::size_t i = 1; i < size.size(); ++i)
        if (diff[i] >= 0.0)
            return size[i - 1] + (size[i] - size[i - 1]) * (-diff[i - 1]) /
                                     (diff[i] - diff[i - 1]);
    return size.back();
}

} // namespace

double
paperError(const SweepFigures &f, std::map<std::string, double> *layer)
{
    const std::size_t last = f.sizes.size() - 1;
    const double eci_bw = 0.5 * (f.eciRdBw[last] + f.eciWrBw[last]);
    const double pcie_bw = 0.5 * (f.pcieRdBw[last] + f.pcieWrBw[last]);
    const double ratio = f.eciRdLat[0] / f.pcieRdLat[0];
    const double cross_kib = crossoverBytes(f) / 1024.0;

    struct Ref
    {
        const char *metric;
        double simulated;
        double paper;
        /** Error |ln(sim / paper)|: a size is off by factors, not bytes. */
        bool logScale = false;
    };
    const Ref refs[] = {
        {"model.two_socket_latency_ns", f.twoSocketNs, 150.0},
        {"model.two_socket_bw_gib", f.twoSocketGib, 19.0},
        {"model.crossover_kib", cross_kib, 8.0, true},
        {"model.eci_16KiB_bw_gib", eci_bw, 11.5},
        {"model.pcie_16KiB_bw_gib", pcie_bw, 13.0},
        {"model.eci_pcie_128B_lat_ratio", ratio, 0.5},
    };
    double sum = 0.0;
    for (const Ref &r : refs) {
        sum += r.logScale ? std::fabs(std::log(r.simulated / r.paper))
                          : std::fabs(r.simulated - r.paper) / r.paper;
        if (layer)
            (*layer)[r.metric] = r.simulated;
    }
    if (layer) {
        (*layer)["model.eci_rd_128B_lat_us"] = f.eciRdLat[0];
        (*layer)["model.pcie_rd_128B_lat_us"] = f.pcieRdLat[0];
    }
    return 100.0 * sum / static_cast<double>(std::size(refs));
}

} // namespace perfbench
