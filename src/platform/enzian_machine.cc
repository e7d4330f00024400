/**
 * @file
 * EnzianMachine composition.
 */

#include "platform/enzian_machine.hh"

#include "base/logging.hh"
#include "fpga/bitstream.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::platform {

EnzianMachine::Config::Config()
    : link(params::eciLinkConfig()), remote_agent()
{
    remote_agent.max_outstanding = params::eciMaxOutstanding;
}

EnzianMachine::EnzianMachine(const Config &cfg) : cfg_(cfg)
{
    if (cfg_.threads > 0 || cfg_.shared_scheduler) {
        // The epoch length is the platform's own latency floor:
        // nothing can cross the ECI faster than engine + wire +
        // engine, so an epoch that long can never miss a message.
        const Tick lookahead = eci::EciLink::minCrossLatency(cfg_.link);
        if (cfg_.shared_scheduler) {
            schedPtr_ = cfg_.shared_scheduler;
            if (schedPtr_->lookahead() > lookahead) {
                fatal("machine '%s': shared scheduler lookahead %llu "
                      "exceeds this machine's link floor %llu",
                      cfg_.name.c_str(),
                      static_cast<unsigned long long>(
                          schedPtr_->lookahead()),
                      static_cast<unsigned long long>(lookahead));
            }
        } else {
            sim::DomainScheduler::Options opts;
            opts.adaptive = cfg_.adaptive_epochs;
            sched_ = std::make_unique<sim::DomainScheduler>(
                cfg_.name + ".sched", lookahead, cfg_.threads, opts);
            schedPtr_ = sched_.get();
        }
        cpuDomain_ = &schedPtr_->addDomain(cfg_.name + ".cpu");
        fpgaDomain_ = &schedPtr_->addDomain(cfg_.name + ".fpga");
        eqPtr_ = &cpuDomain_->queue();
        fpgaEqPtr_ = &fpgaDomain_->queue();
    } else {
        eq_ = std::make_unique<EventQueue>();
        eqPtr_ = eq_.get();
        fpgaEqPtr_ = eqPtr_;
    }
    map_ = std::make_unique<mem::AddressMap>(cfg_.cpu_dram_bytes,
                                             cfg_.fpga_dram_bytes);

    cpuMem_ = std::make_unique<mem::MemoryController>(
        cfg_.name + ".cpu.mem", *eqPtr_, cfg_.cpu_dram_bytes,
        params::cpuDramChannels, params::cpuDramConfig());
    fpgaMem_ = std::make_unique<mem::MemoryController>(
        cfg_.name + ".fpga.mem", *fpgaEqPtr_, cfg_.fpga_dram_bytes,
        params::fpgaDramChannels, params::fpgaDramConfig());

    cache::Cache::Config l2cfg;
    l2cfg.size_bytes = params::cpuL2Bytes;
    l2cfg.ways = 16;
    l2cfg.partitions = 2; // local (home) vs remote-agent fills
    l2_ = std::make_unique<cache::Cache>(cfg_.name + ".cpu.l2", *eqPtr_, l2cfg);

    fabric_ = std::make_unique<eci::EciFabric>(
        cfg_.name + ".eci", *eqPtr_, cfg_.link, cfg_.links, cfg_.policy);
    if (schedPtr_)
        fabric_->bindDomains(*schedPtr_, *cpuDomain_, *fpgaDomain_);

    cpuIoSpace_ = std::make_unique<eci::IoSpace>();
    fpgaIoSpace_ = std::make_unique<eci::IoSpace>();

    cpuHome_ = std::make_unique<eci::HomeAgent>(
        cfg_.name + ".cpu.home", *eqPtr_, mem::NodeId::Cpu, *map_, *cpuMem_,
        *fabric_);
    fpgaHome_ = std::make_unique<eci::HomeAgent>(
        cfg_.name + ".fpga.home", *fpgaEqPtr_, mem::NodeId::Fpga, *map_,
        *fpgaMem_, *fabric_);
    cpuRemote_ = std::make_unique<eci::RemoteAgent>(
        cfg_.name + ".cpu.remote", *eqPtr_, mem::NodeId::Cpu, *map_, *fabric_,
        cfg_.remote_agent);
    fpgaRemote_ = std::make_unique<eci::RemoteAgent>(
        cfg_.name + ".fpga.remote", *fpgaEqPtr_, mem::NodeId::Fpga, *map_,
        *fabric_, cfg_.remote_agent);

    const eci::proto::ProtocolTable *table =
        eci::proto::protocolByName(cfg_.protocol);
    if (!table) {
        std::string known;
        for (const auto *p : eci::proto::allProtocols())
            known += std::string(known.empty() ? "" : ", ") + p->name();
        fatal("machine '%s': unknown protocol '%s' (registered: %s)",
              cfg_.name.c_str(), cfg_.protocol.c_str(), known.c_str());
    }
    cpuHome_->setProtocol(table);
    fpgaHome_->setProtocol(table);
    cpuRemote_->setProtocol(table);
    fpgaRemote_->setProtocol(table);

    // The CPU's L2 caches its own node's lines (snooped by the home
    // agent) and, in cached mode, remote FPGA-homed lines too.
    cpuHome_->attachLocalCache(l2_.get());
    cpuHome_->setReadAllocate(cfg_.home_read_allocate);
    if (cfg_.cpu_caches_remote)
        cpuRemote_->attachCache(l2_.get());
    cpuHome_->attachIoSpace(cpuIoSpace_.get());
    fpgaHome_->attachIoSpace(fpgaIoSpace_.get());

    fabric_->setReceiver(mem::NodeId::Cpu,
                         [this](const eci::EciMsg &msg) {
                             eci::dispatch(*cpuHome_, *cpuRemote_, msg);
                         });
    fabric_->setReceiver(mem::NodeId::Fpga,
                         [this](const eci::EciMsg &msg) {
                             eci::dispatch(*fpgaHome_, *fpgaRemote_,
                                           msg);
                         });

    fpga::Fabric::Config fab_cfg;
    fpga_ = std::make_unique<fpga::Fabric>(cfg_.name + ".fpga.fabric",
                                           *fpgaEqPtr_, fab_cfg);
    fpga_->loadBitstream(fpga::findBitstream(cfg_.bitstream));

    fpga::Shell::Config shell_cfg;
    shell_ = std::make_unique<fpga::Shell>(cfg_.name + ".fpga.shell",
                                           *fpgaEqPtr_, *fpga_, shell_cfg);

    cluster_ = std::make_unique<cpu::CoreCluster>(
        cfg_.name + ".cpu.cluster", *eqPtr_, cfg_.cores, params::cpuClockHz);

    bmc_ = std::make_unique<bmc::Bmc>(cfg_.name + ".bmc", *eqPtr_);
}

EnzianMachine::~EnzianMachine() = default;

std::uint64_t
EnzianMachine::run()
{
    return schedPtr_ ? schedPtr_->run() : eqPtr_->run();
}

std::uint64_t
EnzianMachine::runUntil(Tick limit)
{
    return schedPtr_ ? schedPtr_->runUntil(limit)
                     : eqPtr_->runUntil(limit);
}

void
EnzianMachine::dumpStats(std::ostream &os)
{
    os << "---------- " << cfg_.name << " statistics @ "
       << units::toMicros(now()) << " us ----------\n";
    l2_->stats().dump(os);
    for (std::uint32_t i = 0; i < fabric_->linkCount(); ++i)
        fabric_->link(i).stats().dump(os);
    cpuHome_->stats().dump(os);
    fpgaHome_->stats().dump(os);
    cpuRemote_->stats().dump(os);
    fpgaRemote_->stats().dump(os);
    for (std::uint32_t ch = 0; ch < cpuMem_->dram().channelCount();
         ++ch)
        cpuMem_->dram().channel(ch).stats().dump(os);
    for (std::uint32_t ch = 0; ch < fpgaMem_->dram().channelCount();
         ++ch)
        fpgaMem_->dram().channel(ch).stats().dump(os);
    shell_->stats().dump(os);
    bmc_->bus().stats().dump(os);
}

Tick
EnzianMachine::loadBitstream(const std::string &name)
{
    return fpga_->loadBitstream(fpga::findBitstream(name));
}

} // namespace enzian::platform
