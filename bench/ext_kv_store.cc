/**
 * @file
 * Extension bench (paper section 5.2 use-case): hardware-accelerated
 * key-value store throughput and latency.
 *
 * A KV-Direct-style store lives in Enzian's FPGA DRAM and serves
 * GET/PUT over 100 GbE without touching the CPU. The bench sweeps the
 * GET fraction of a YCSB-like mix and reports ops/s and latency, and
 * contrasts the FPGA-DRAM capacity argument the paper makes (512 GiB
 * behind the FPGA vs tens of GiB on PCIe cards). Honours
 * ENZIAN_THREADS, with the same rows at any thread count.
 */

#include "bench_common.hh"

#include "accel/kv_store.hh"

using namespace enzian;
using namespace enzian::bench;

int
main()
{
    header("Extension: FPGA-resident key-value store (KV-Direct)");
    BenchReport rep("ext_kv_store");

    for (const double get_frac : {0.50, 0.95, 1.00}) {
        auto mcfg = platform::enzianDefaultConfig();
        mcfg.cpu_dram_bytes = 64ull << 20;
        mcfg.fpga_dram_bytes = 512ull << 20;
        mcfg.threads = envThreads();
        platform::EnzianMachine m(mcfg);
        // The switch, the store and its client all sit on the FPGA
        // side, so they share its queue in domain mode.
        EventQueue &eq = m.fpgaEventq();
        net::Switch::Config scfg;
        scfg.port = platform::params::eth100Config();
        net::Switch sw("sw", eq, 2, scfg);
        accel::KvStoreServer::Config kcfg;
        kcfg.port = 0;
        kcfg.slots = 1 << 22; // 4M slots x 64 B = 256 MiB table
        accel::KvStoreServer server("kv", eq, sw, m.fpgaMem(), kcfg);
        accel::KvClient client("cli", eq, sw, 1, 0);

        // Preload. The direct puts keep FPGA DRAM busy well past
        // tick 0, so the measured window opens once they drain.
        Rng rng(0xcafe);
        std::uint8_t v[32];
        for (auto &b : v)
            b = 0x5a;
        const std::uint64_t keys = 100000;
        Tick t0 = 0;
        for (std::uint64_t k = 0; k < keys; ++k) {
            server.put(k, v, sizeof(v));
            t0 = std::max(t0, server.lastOpDramDone());
        }

        // Mixed workload with a bounded number of requests in flight
        // (a real client's request window).
        const std::uint64_t ops = 20000;
        const std::uint32_t window = 32;
        std::uint64_t issued_n = 0, done = 0;
        Tick last = 0;
        Accumulator lat_us;
        std::function<void()> issue = [&]() {
            if (issued_n >= ops)
                return;
            ++issued_n;
            const std::uint64_t key = rng.below(keys);
            const Tick issued = eq.now();
            auto complete = [&, issued](Tick t, bool ok) {
                if (!ok)
                    fatal("kv operation failed");
                ++done;
                last = std::max(last, t);
                lat_us.sample(units::toMicros(t - issued));
                issue();
            };
            if (rng.uniform() < get_frac) {
                client.get(key,
                           [complete](Tick t, bool ok,
                                      std::vector<std::uint8_t>) {
                               complete(t, ok);
                           });
            } else {
                client.put(key, v, sizeof(v), complete);
            }
        };
        eq.schedule(
            t0,
            [&]() {
                for (std::uint32_t i = 0; i < window; ++i)
                    issue();
            },
            "kv-bench-start");
        m.run();
        if (done != ops)
            fatal("kv bench incomplete");
        const double mops =
            static_cast<double>(ops) / units::toSeconds(last - t0) /
            1e6;
        std::printf("GET %.0f%% : %6.2f Mops/s, mean latency %5.2f us "
                    "(max %.2f), %.2f probes/op\n",
                    get_frac * 100, mops, lat_us.mean(), lat_us.max(),
                    static_cast<double>(server.probes()) /
                        static_cast<double>(ops + keys));
        const std::string key =
            format("get%.0f", get_frac * 100);
        rep.add(key + "_mops", mops);
        rep.add(key + "_mean_lat_us", lat_us.mean());
        rep.add(key + "_max_lat_us", lat_us.max());
    }
    std::printf("\nShape check: line-rate-limited small-op service "
                "from the fabric with single-digit-microsecond "
                "latency, host CPU idle; the 512 GiB FPGA DRAM holds "
                "tables no PCIe card can.\n");
    return 0;
}
