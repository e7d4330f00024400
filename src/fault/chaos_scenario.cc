/**
 * @file
 * Chaos scenario implementation.
 */

#include "fault/chaos_scenario.hh"

#include <cstring>
#include <memory>
#include <sstream>

#include "base/rng.hh"
#include "fault/fault_injector.hh"
#include "net/rdma_engine.hh"
#include "net/switch.hh"
#include "net/tcp_stack.hh"
#include "obs/registry.hh"
#include "platform/enzian_machine.hh"
#include "sim/domain_scheduler.hh"
#include "verif/invariant_monitor.hh"

namespace enzian::fault {

namespace {

constexpr std::uint64_t lineBytes = cache::lineSize;

/** Deterministic per-(line, version) 128-byte pattern. */
void
fillPattern(std::uint8_t *buf, Addr line, std::uint32_t version)
{
    const std::uint64_t h = (line * 0x9e3779b97f4a7c15ull) ^
                            (std::uint64_t(version) * 0xff51afd7ed558ccdull);
    for (std::uint64_t i = 0; i < lineBytes; ++i)
        buf[i] = static_cast<std::uint8_t>((h >> ((i % 8) * 8)) + i);
}

/** One pool of lines with a single designated writer. */
struct Pool
{
    Addr base = 0;
    std::vector<std::uint32_t> version;  // last ISSUED write per line
    std::vector<bool> inflight;          // an op is outstanding

    Addr lineAt(std::uint32_t i) const { return base + i * lineBytes; }
};

} // namespace

ChaosResult
runChaos(const FaultPlan &plan, const ChaosConfig &cfg,
         std::uint32_t threads)
{
    ChaosResult result;

    platform::EnzianMachine::Config mc;
    mc.cpu_dram_bytes = 64ull << 20;
    mc.fpga_dram_bytes = 64ull << 20;
    mc.cores = 4;
    mc.protocol = cfg.protocol;
    mc.name = "chaos";
    mc.threads = std::max(threads, 1u);
    platform::EnzianMachine m(mc);
    EventQueue &eq = m.eventq();
    EventQueue &feq = m.fpgaEventq();

    // The traffic driver and its pool bookkeeping live in the CPU
    // domain; FPGA-side issues and their completions hop across.
    sim::DomainScheduler &sched = *m.scheduler();
    sim::CrossDomainChannel &toFpga =
        sched.channel(*m.cpuDomain(), *m.fpgaDomain());
    sim::CrossDomainChannel &toCpu =
        sched.channel(*m.fpgaDomain(), *m.cpuDomain());
    const Tick cross = sched.lookahead();

    verif::InvariantMonitor::Hooks hooks;
    hooks.cpuCache = &m.l2();
    hooks.cpuHome = &m.cpuHome();
    hooks.fpgaHome = &m.fpgaHome();
    hooks.map = &m.map();
    verif::InvariantMonitor monitor(hooks);
    monitor.attach(m.fabric());

    FaultInjector inj("chaos.fault", eq, plan);
    inj.attachEci(m.fabric(), m.cpuHome(), m.fpgaHome(), m.cpuRemote(),
                  m.fpgaRemote());
    inj.attachDram(m.cpuMem().dram(), m.fpgaMem().dram());
    if (inj.eciLossy()) {
        // Same-tid retransmissions are protocol-legal under recovery;
        // the checker must not flag them.
        monitor.setRetryTolerant(true);
    }

    // Optional side traffic: a TCP pair through its own switch in the
    // CPU domain, and an RDMA initiator/target through another in the
    // FPGA domain, next to the FPGA DRAM the target serves.
    std::unique_ptr<net::Switch> tcpSw, rdmaSw;
    std::unique_ptr<net::TcpStack> tcpA, tcpB;
    std::unique_ptr<net::DirectDramPath> rdmaPath;
    std::unique_ptr<net::RdmaTarget> rdmaTgt;
    std::unique_ptr<net::RdmaInitiator> rdmaIni;
    if (cfg.with_net) {
        tcpSw = std::make_unique<net::Switch>("chaos.tcp.sw", eq, 2,
                                              net::Switch::Config{});
        tcpA = std::make_unique<net::TcpStack>("chaos.tcp0", eq, *tcpSw,
                                               net::hostTcpConfig(0));
        tcpB = std::make_unique<net::TcpStack>("chaos.tcp1", eq, *tcpSw,
                                               net::hostTcpConfig(1));
        inj.attachNet(*tcpA, *tcpB); // before connect()
    }
    if (cfg.with_rdma) {
        rdmaSw = std::make_unique<net::Switch>("chaos.rdma.sw", feq, 2,
                                               net::Switch::Config{});
        rdmaPath = std::make_unique<net::DirectDramPath>(m.fpgaMem());
        net::RdmaTarget::Config tc;
        tc.port = 1;
        rdmaTgt = std::make_unique<net::RdmaTarget>(
            "chaos.rdma.tgt", feq, *rdmaSw, *rdmaPath, tc);
        rdmaIni = std::make_unique<net::RdmaInitiator>(
            "chaos.rdma.ini", feq, *rdmaSw, 0, 1);
        inj.attachRdma(*rdmaIni, *rdmaTgt);
    }
    if (cfg.with_bmc)
        inj.attachBmc(m.bmc());
    inj.arm();

    // Three pools, each with exactly one writer so the last issued
    // write per line is well-defined:
    //  A: FPGA-homed, written by the CPU remote agent (cached, M in L2)
    //  B: FPGA-homed, written at the FPGA home (SINVs any CPU copy)
    //  C: CPU-homed, written by the FPGA remote agent (uncached RSTT)
    Pool poolA{mem::AddressMap::fpgaDramBase, {}, {}};
    Pool poolB{mem::AddressMap::fpgaDramBase + cfg.lines * lineBytes,
               {},
               {}};
    Pool poolC{0, {}, {}};
    for (Pool *p : {&poolA, &poolB, &poolC}) {
        p->version.assign(cfg.lines, 0);
        p->inflight.assign(cfg.lines, false);
    }

    Rng traffic(cfg.seed ^ 0x5851f42d4c957f2dull);
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::vector<std::string> mismatches;

    // Pick a line with no op in flight (deterministic linear probe);
    // issuing two ops on one line would make "last write" ambiguous.
    auto pickFree = [&](Pool &p) -> int {
        const auto start = traffic.below(cfg.lines);
        for (std::uint32_t k = 0; k < cfg.lines; ++k) {
            const auto i = (start + k) % cfg.lines;
            if (!p.inflight[i])
                return static_cast<int>(i);
        }
        return -1;
    };

    const Tick gap = units::ns(350.0);
    // FPGA-side issues hop into the FPGA domain, and their completions
    // hop back, so pool bookkeeping stays CPU-local. Both hops must
    // respect the channels' lookahead floor.
    const Tick hop = std::max(gap, cross);

    auto issueWrite = [&](Pool &p, std::uint32_t i, int role) {
        p.inflight[i] = true;
        const Addr line = p.lineAt(i);
        const std::uint32_t v = ++p.version[i];
        auto buf = std::make_shared<std::vector<std::uint8_t>>(lineBytes);
        fillPattern(buf->data(), line, v);
        ++issued;
        if (role == 0) {
            m.cpuRemote().writeLine(line, buf->data(),
                                    [&p, i, &completed, buf](Tick) {
                                        p.inflight[i] = false;
                                        ++completed;
                                    });
            return;
        }
        auto done = [&p, i, &completed, buf, &toCpu, &feq,
                     cross](Tick) {
            toCpu.push(feq.now() + cross, [&p, i, &completed]() {
                p.inflight[i] = false;
                ++completed;
            });
        };
        toFpga.push(eq.now() + hop, [&m, role, line, buf, done]() {
            if (role == 1)
                m.fpgaHome().localWrite(line, buf->data(), done);
            else
                m.fpgaRemote().writeLineUncached(line, buf->data(), done);
        });
    };

    auto issueRead = [&](Pool &p, std::uint32_t i, int role) {
        p.inflight[i] = true;
        const Addr line = p.lineAt(i);
        auto buf = std::make_shared<std::vector<std::uint8_t>>(lineBytes);
        auto done = [&p, i, &completed, buf](Tick) {
            p.inflight[i] = false;
            ++completed;
        };
        if (role == 0)
            m.cpuRemote().readLine(line, buf->data(), done);
        else
            m.cpuHome().localRead(line, buf->data(), done);
        ++issued;
    };

    std::function<void(std::uint32_t)> step =
        [&](std::uint32_t remaining) {
            if (remaining == 0)
                return;
            const auto r = traffic.below(6);
            int i = -1;
            switch (r) {
              case 0:
                if ((i = pickFree(poolA)) >= 0)
                    issueWrite(poolA, i, 0);
                break;
              case 1:
                if ((i = pickFree(poolB)) >= 0)
                    issueWrite(poolB, i, 1);
                break;
              case 2:
                if ((i = pickFree(poolC)) >= 0)
                    issueWrite(poolC, i, 2);
                break;
              case 3:
                if ((i = pickFree(poolA)) >= 0)
                    issueRead(poolA, i, 0);
                break;
              case 4:
                if ((i = pickFree(poolB)) >= 0)
                    issueRead(poolB, i, 0);
                break;
              default:
                if ((i = pickFree(poolC)) >= 0)
                    issueRead(poolC, i, 1);
                break;
            }
            eq.scheduleDelta(gap,
                             [&step, remaining]() { step(remaining - 1); },
                             "chaos-step");
        };
    eq.scheduleDelta(gap, [&step, &cfg]() { step(cfg.ops); },
                     "chaos-start");

    // TCP side traffic: several jobs on one flow; every byte must be
    // delivered in order despite loss/reordering.
    std::uint32_t tcpJobs = 0, tcpJobsDone = 0;
    std::uint64_t tcpBytes = 0;
    std::uint32_t tcpFlow = 0;
    if (cfg.with_net) {
        tcpFlow = tcpA->connect(*tcpB);
        tcpJobs = 6;
        for (std::uint32_t j = 0; j < tcpJobs; ++j) {
            const std::uint64_t bytes = 16 * 1024 + j * 4096;
            tcpBytes += bytes;
            eq.schedule(units::us(2.0 + 5.0 * j),
                        [&tcpA, &tcpJobsDone, tcpFlow, bytes]() {
                            tcpA->send(tcpFlow, bytes,
                                       [&tcpJobsDone](Tick) {
                                           ++tcpJobsDone;
                                       });
                        },
                        "chaos-tcp-send");
        }
    }

    // RDMA side traffic, all in the FPGA domain: write buffers into
    // FPGA DRAM (offsets far above the coherent pools), read them
    // back, compare. Its results stay in FPGA-side accumulators.
    std::uint32_t rdmaJobs = 0, rdmaJobsDone = 0;
    std::vector<std::string> rdmaMismatches;
    std::vector<std::shared_ptr<std::vector<std::uint8_t>>> rdmaBufs;
    if (cfg.with_rdma) {
        rdmaJobs = 4;
        const std::uint64_t len = 4096;
        for (std::uint32_t j = 0; j < rdmaJobs; ++j) {
            const Addr off = (1ull << 20) + j * 2 * len;
            auto src =
                std::make_shared<std::vector<std::uint8_t>>(len);
            auto dst = std::make_shared<std::vector<std::uint8_t>>(
                len, std::uint8_t(0));
            for (std::uint64_t b = 0; b < len; ++b)
                (*src)[b] = static_cast<std::uint8_t>(b * 31 + j);
            rdmaBufs.push_back(src);
            rdmaBufs.push_back(dst);
            feq.schedule(
                units::us(3.0 + 7.0 * j),
                [&rdmaIni, &rdmaJobsDone, &rdmaMismatches, off, len, src,
                 dst]() {
                    rdmaIni->write(
                        off, src->data(), len,
                        [&rdmaIni, &rdmaJobsDone, &rdmaMismatches, off,
                         len, src, dst](Tick) {
                            rdmaIni->read(
                                off, dst->data(), len,
                                [&rdmaJobsDone, &rdmaMismatches, off, src,
                                 dst](Tick) {
                                    if (*src != *dst) {
                                        std::ostringstream os;
                                        os << "rdma data mismatch at "
                                              "offset 0x"
                                           << std::hex << off;
                                        rdmaMismatches.push_back(os.str());
                                    }
                                    ++rdmaJobsDone;
                                });
                        });
                },
                "chaos-rdma-job");
        }
    }

    m.run();
    mismatches.insert(mismatches.end(), rdmaMismatches.begin(),
                      rdmaMismatches.end());

    // Quiescent data-integrity sweep: every line a write was acked on
    // must read back the last issued pattern through its home agent
    // (which snoops any cached copy, so this sees the coherent truth).
    // The FPGA-homed reads complete on the FPGA domain, so they get
    // their own accumulators, merged after the run in fixed order (CPU
    // first) for thread-count determinism.
    std::uint32_t checksLeft = 0;
    std::uint32_t fpgaChecksLeft = 0;
    std::vector<std::string> fpgaMismatches;
    auto verifyPool = [&](Pool &p, bool fpga_homed) {
        for (std::uint32_t i = 0; i < cfg.lines; ++i) {
            if (p.version[i] == 0)
                continue;
            auto &mis = fpga_homed ? fpgaMismatches : mismatches;
            auto &left = fpga_homed ? fpgaChecksLeft : checksLeft;
            ++left;
            const Addr line = p.lineAt(i);
            const std::uint32_t v = p.version[i];
            auto got =
                std::make_shared<std::vector<std::uint8_t>>(lineBytes);
            auto done = [&mis, &left, line, v, got](Tick) {
                std::uint8_t want[lineBytes];
                fillPattern(want, line, v);
                if (std::memcmp(want, got->data(), lineBytes) != 0) {
                    std::ostringstream os;
                    os << "data mismatch at line 0x" << std::hex << line
                       << std::dec << " (version " << v << ")";
                    mis.push_back(os.str());
                }
                --left;
            };
            if (fpga_homed)
                m.fpgaHome().localRead(line, got->data(), done);
            else
                m.cpuHome().localRead(line, got->data(), done);
        }
    };
    verifyPool(poolA, true);
    verifyPool(poolB, true);
    verifyPool(poolC, false);
    m.run();
    mismatches.insert(mismatches.end(), fpgaMismatches.begin(),
                      fpgaMismatches.end());
    if (checksLeft + fpgaChecksLeft != 0)
        mismatches.push_back("verification reads did not all complete");

    bool flushed = false;
    m.cpuRemote().flushAll([&flushed](Tick) { flushed = true; });
    m.run();
    if (!flushed)
        mismatches.push_back("flushAll did not complete");

    monitor.checkAllLines();
    monitor.finalize();

    result.violations = monitor.violations();
    result.violations.insert(result.violations.end(),
                             mismatches.begin(), mismatches.end());
    if (completed != issued) {
        std::ostringstream os;
        os << "only " << completed << " of " << issued
           << " ops completed (livelock?)";
        result.violations.push_back(os.str());
    }
    if (cfg.with_net) {
        if (tcpJobsDone != tcpJobs)
            result.violations.push_back("tcp jobs did not complete");
        else if (tcpB->bytesReceived(tcpFlow) != tcpBytes)
            result.violations.push_back("tcp byte count mismatch");
    }
    if (cfg.with_rdma && rdmaJobsDone != rdmaJobs)
        result.violations.push_back("rdma jobs did not complete");

    result.opsIssued = issued;
    result.opsCompleted = completed;
    result.faultsInjected = inj.injectedTotal();
    result.report = inj.report();
    {
        std::ostringstream js;
        obs::Registry::global().exportJson(js);
        result.registryJson = js.str();
    }
    result.ok = result.violations.empty();
    return result;
}

} // namespace enzian::fault
