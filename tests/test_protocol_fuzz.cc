/**
 * @file
 * Property-based protocol fuzzing.
 *
 * For a sweep of machine configurations (balancing policy x lane
 * count x MSHR depth), drive a randomized mix of cached/uncached
 * reads and writes from both nodes against overlapping lines, then
 * check three properties:
 *
 *  1. liveness: every operation completes;
 *  2. protocol soundness: the full ECI trace replays cleanly through
 *     the assertion checker (no tid reuse, compatible MOESI states,
 *     every request answered);
 *  3. functional correctness: after flushing the caches, memory
 *     matches a sequential reference model that applies the same
 *     writes in completion order.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "platform/enzian_machine.hh"
#include "platform/platform_factory.hh"
#include "trace/checker.hh"

namespace enzian {
namespace {

struct FuzzConfig
{
    eci::BalancePolicy policy;
    std::uint32_t lanes;
    std::uint32_t mshrs;
    std::uint64_t seed;
};

class ProtocolFuzz : public ::testing::TestWithParam<FuzzConfig>
{
};

TEST_P(ProtocolFuzz, RandomWorkloadStaysSoundAndCorrect)
{
    const FuzzConfig fc = GetParam();
    auto cfg = platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 32ull << 20;
    cfg.fpga_dram_bytes = 32ull << 20;
    cfg.policy = fc.policy;
    cfg.link.lanes = fc.lanes;
    cfg.remote_agent.max_outstanding = fc.mshrs;
    platform::EnzianMachine m(cfg);

    trace::EciTrace tr;
    tr.attach(m.fabric());

    // Work over a small set of lines so operations genuinely collide.
    constexpr std::uint32_t n_lines = 24;
    constexpr int n_ops = 400;
    Rng rng(fc.seed);

    // Reference model: last committed value per line, maintained in
    // completion order via the callbacks.
    std::map<Addr, std::vector<std::uint8_t>> committed;

    int completed = 0;
    for (int i = 0; i < n_ops; ++i) {
        const bool fpga_homed = rng.chance(0.5);
        const Addr line =
            (fpga_homed ? mem::AddressMap::fpgaDramBase : 0) +
            0x10000 + rng.below(n_lines) * cache::lineSize;
        std::vector<std::uint8_t> data(cache::lineSize);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());

        switch (rng.below(4)) {
          case 0: // CPU cached op on FPGA-homed, or local write
            if (fpga_homed) {
                m.cpuRemote().writeLine(line, data.data(),
                                        [&completed, &committed, line,
                                         data](Tick) {
                                            committed[line] = data;
                                            ++completed;
                                        });
            } else {
                // Home-local coherent write through the home agent.
                m.cpuHome().localWrite(line, data.data(),
                                       [&completed, &committed, line,
                                        data](Tick) {
                                           committed[line] = data;
                                           ++completed;
                                       });
            }
            break;
          case 1:
            if (fpga_homed) {
                m.cpuRemote().readLine(line, nullptr,
                                       [&completed](Tick) {
                                           ++completed;
                                       });
            } else {
                m.fpgaRemote().readLineUncached(line, nullptr,
                                                [&completed](Tick) {
                                                    ++completed;
                                                });
            }
            break;
          case 2:
            if (!fpga_homed) {
                m.fpgaRemote().writeLineUncached(
                    line, data.data(),
                    [&completed, &committed, line, data](Tick) {
                        committed[line] = data;
                        ++completed;
                    });
            } else {
                m.fpgaHome().localRead(line, nullptr,
                                       [&completed](Tick) {
                                           ++completed;
                                       });
            }
            break;
          default:
            if (fpga_homed) {
                m.cpuRemote().readLine(line, nullptr,
                                       [&completed](Tick) {
                                           ++completed;
                                       });
            } else {
                m.fpgaRemote().readLineUncached(line, nullptr,
                                                [&completed](Tick) {
                                                    ++completed;
                                                });
            }
            break;
        }
        // Occasionally let the machine drain to vary interleavings.
        if (rng.chance(0.2))
            m.eventq().run();
    }
    m.eventq().run();
    EXPECT_EQ(completed, n_ops) << "liveness violated";

    // Flush all CPU-cached remote lines home.
    bool flushed = false;
    m.cpuRemote().flushAll([&](Tick) { flushed = true; });
    m.eventq().run();
    ASSERT_TRUE(flushed);

    // Protocol soundness over the whole trace.
    trace::ProtocolChecker checker;
    checker.check(tr);
    checker.finalize();
    EXPECT_TRUE(checker.clean())
        << "first violation: "
        << (checker.violations().empty() ? ""
                                         : checker.violations()[0]);

    // Functional: every line whose last write we observed must hold
    // that value in its home memory now (no lost or phantom writes).
    for (const auto &[line, data] : committed) {
        std::uint8_t now_mem[cache::lineSize];
        if (line >= mem::AddressMap::fpgaDramBase) {
            m.fpgaMem().store().read(
                line - mem::AddressMap::fpgaDramBase, now_mem,
                cache::lineSize);
        } else {
            m.cpuMem().store().read(line, now_mem, cache::lineSize);
        }
        EXPECT_EQ(std::memcmp(now_mem, data.data(), cache::lineSize),
                  0)
            << "line " << std::hex << line;
    }
}

std::vector<FuzzConfig>
fuzzMatrix()
{
    std::vector<FuzzConfig> out;
    std::uint64_t seed = 1;
    for (auto policy : {eci::BalancePolicy::SingleLink,
                        eci::BalancePolicy::RoundRobin,
                        eci::BalancePolicy::AddressHash,
                        eci::BalancePolicy::LeastLoaded}) {
        for (std::uint32_t lanes : {4u, 12u}) {
            for (std::uint32_t mshrs : {1u, 8u, 128u}) {
                out.push_back(FuzzConfig{policy, lanes, mshrs, seed});
                seed += 0x9e37;
            }
        }
    }
    return out;
}

// Names each case after its configuration, e.g. round_robin_l12_m8;
// gtest would otherwise print the raw bytes, struct padding included.
void
PrintTo(const FuzzConfig &c, std::ostream *os)
{
    std::string policy = toString(c.policy);
    for (auto &ch : policy)
        if (ch == '-')
            ch = '_';
    *os << policy << "_l" << c.lanes << "_m" << c.mshrs;
}

INSTANTIATE_TEST_SUITE_P(ConfigMatrix, ProtocolFuzz,
                         ::testing::ValuesIn(fuzzMatrix()));

} // namespace
} // namespace enzian
