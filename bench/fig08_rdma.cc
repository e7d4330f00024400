/**
 * @file
 * Figure 8: RDMA performance.
 *
 * A VCU118-style request generator issues 1-sided copy requests over
 * 100 GbE to five targets: the Alveo card serving its own DRAM and
 * host memory (via PCIe DMA), a Mellanox-class RNIC serving host
 * memory, and Enzian serving FPGA DRAM and host memory (over ECI,
 * coherent with the CPU's L2). Read/write latency and throughput
 * against transfer size.
 */

#include "bench_common.hh"

#include "net/rdma_engine.hh"
#include "net/rnic_model.hh"

using namespace enzian;
using namespace enzian::bench;
using namespace enzian::net;

namespace {

Switch::Config
switchConfig()
{
    Switch::Config cfg;
    cfg.port = platform::params::eth100Config();
    cfg.port.mtu = 4096;
    return cfg;
}

/** One measurement rig: built fresh per (target, op, metric) cell. */
struct Rig
{
    std::unique_ptr<platform::EnzianMachine> machine;
    platform::PcieAccelSystem pcie;
    std::unique_ptr<EventQueue> own_eq;
    std::unique_ptr<mem::MemoryController> host_mem;
    EventQueue *eq = nullptr;
    std::unique_ptr<Switch> sw;
    std::unique_ptr<MemoryPath> path;
    std::unique_ptr<RdmaTarget> target;
    std::unique_ptr<RdmaInitiator> init;
    std::vector<std::uint8_t> buf;

    explicit Rig(const std::string &kind)
    {
        if (kind == "enzian-dram" || kind == "enzian-host") {
            auto cfg = platform::enzianDefaultConfig();
            machine = makeBenchMachine(cfg);
            // The switch, NICs and both target paths sit on the FPGA
            // side, so they share its queue in domain mode.
            eq = &machine->fpgaEventq();
            if (kind == "enzian-dram")
                path = std::make_unique<DirectDramPath>(
                    machine->fpgaMem());
            else
                path = std::make_unique<EciHostPath>(
                    machine->fpgaRemote(), 0);
        } else if (kind == "alveo-dram" || kind == "alveo-host") {
            pcie = platform::makePcieAccelerator("alveo-u280");
            eq = pcie.eq.get();
            if (kind == "alveo-dram")
                path = std::make_unique<DirectDramPath>(*pcie.device);
            else
                path = std::make_unique<PcieHostPath>(
                    *pcie.dma, 0, 0x2000000);
        } else { // mellanox-host
            own_eq = std::make_unique<EventQueue>();
            eq = own_eq.get();
            host_mem = std::make_unique<mem::MemoryController>(
                "host.mem", *eq, 256ull << 20, 6,
                platform::params::cpuDramConfig());
            path = std::make_unique<NicDmaPath>(*host_mem,
                                                NicDmaPath::Config{});
        }
        sw = std::make_unique<Switch>("sw", *eq, 2, switchConfig());
        target = std::make_unique<RdmaTarget>("t", *eq, *sw, *path,
                                              RdmaTarget::Config{});
        init = std::make_unique<RdmaInitiator>("i", *eq, *sw, 1, 0);
        buf.resize(1 << 20, 0x5a);
    }

    TransferFn
    transfer(bool write)
    {
        return [this, write](std::uint64_t bytes,
                             std::function<void(Tick)> done) {
            static std::uint64_t off = 0;
            off = (off + 16384) % (64ull << 20);
            if (write)
                init->write(off, buf.data(), bytes, std::move(done));
            else
                init->read(off, buf.data(), bytes, std::move(done));
        };
    }

    /** The rig's clock: a machine's, or the PCIe system's queue. */
    Tick now() const { return machine ? machine->now() : eq->now(); }

    /** Run to quiescence; a machine runs all its domains. */
    void
    run()
    {
        if (machine)
            machine->run();
        else
            eq->run();
    }

    /** Latency of one transfer (us). */
    double
    latencyUs(std::uint64_t bytes, bool write)
    {
        return measureLatencyUs(*this, bytes, transfer(write));
    }

    /** Throughput of @p runs transfers, 8 in flight (GiB/s). */
    double
    throughputGiB(std::uint64_t bytes, std::uint32_t runs, bool write)
    {
        return measureThroughputGiB(*this, bytes, runs, 8,
                                    transfer(write));
    }
};

} // namespace

int
main()
{
    header("Figure 8: RDMA performance");
    BenchReport rep("fig08_rdma");
    const char *kinds[] = {"alveo-dram", "alveo-host", "mellanox-host",
                           "enzian-dram", "enzian-host"};
    for (const bool write : {false, true}) {
        std::printf("\n-- %s --\n", write ? "WRITE" : "READ");
        std::printf("%8s", "size_B");
        for (const char *k : kinds)
            std::printf(" %11.11s_us %11.11s_GiB", k, k);
        std::printf("\n");
        for (std::uint32_t p = 7; p <= 14; ++p) {
            const std::uint64_t size = 1ull << p;
            std::printf("%8llu",
                        static_cast<unsigned long long>(size));
            for (const char *k : kinds) {
                Rig lat_rig(k);
                const double lat = lat_rig.latencyUs(size, write);
                Rig thr_rig(k);
                const double thr = thr_rig.throughputGiB(size, 150, write);
                std::printf(" %14.2f %15.2f", lat, thr);
                std::string key = format(
                    "%s_%s_%lluB", k, write ? "write" : "read",
                    static_cast<unsigned long long>(size));
                for (char &c : key)
                    if (c == '-')
                        c = '_';
                rep.add(key + "_lat_us", lat);
                rep.add(key + "_gib", thr);
            }
            std::printf("\n");
        }
    }
    std::printf("\nShape check: Enzian DRAM has the best throughput "
                "and latency at large sizes (512 GiB of DDR4 behind "
                "the FPGA); Enzian host access is coherent with the "
                "CPU L2 and competitive with the Mellanox RNIC; the "
                "Alveo host path pays PCIe DMA setup costs.\n");
    return 0;
}
