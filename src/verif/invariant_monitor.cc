/**
 * @file
 * Runtime coherence-invariant monitor (implementation).
 */

#include "verif/invariant_monitor.hh"

#include <set>

#include "base/logging.hh"
#include "verif/invariants.hh"

namespace enzian::verif {

using cache::MoesiState;
using eci::Opcode;

namespace {

/** Protocol messages that name a cache line (vs I/O and IPI). */
bool
coherent(Opcode op)
{
    switch (op) {
      case Opcode::IOBLD:
      case Opcode::IOBST:
      case Opcode::IOBACK:
      case Opcode::IPI:
        return false;
      default:
        return true;
    }
}

} // namespace

void
InvariantMonitor::attach(eci::EciFabric &fabric)
{
    fabric.addTap([this](Tick when, const eci::EciMsg &msg) {
        observe(when, msg);
    });
}

MoesiState
InvariantMonitor::probe(cache::Cache *c, Addr line) const
{
    return c ? c->probe(line) : MoesiState::Invalid;
}

void
InvariantMonitor::checkLine(Tick when, Addr line)
{
    const MoesiState cpu = probe(hooks_.cpuCache, line);
    const MoesiState fpga = probe(hooks_.fpgaCache, line);
    auto report = [this, when, line](const std::string &what) {
        liveViolations_.push_back(
            format("tick %llu line %llx: %s",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(line),
                   what.c_str()));
    };
    if (auto v = checkSwmr(cpu, fpga))
        report(*v);
    if (!hooks_.map)
        return;
    // The home agent's directory must cover the remote node's actual
    // copy of every line it is home for.
    if (hooks_.map->homeOf(line) == mem::NodeId::Cpu) {
        if (hooks_.cpuHome) {
            if (auto v = checkDirCoverage(
                    fpga, hooks_.cpuHome->remoteState(line)))
                report(*v);
        }
    } else if (hooks_.fpgaHome) {
        if (auto v = checkDirCoverage(
                cpu, hooks_.fpgaHome->remoteState(line)))
            report(*v);
    }
}

void
InvariantMonitor::observe(Tick when, const eci::EciMsg &msg)
{
    ++observed_;
    checker_.observe({when, msg});
    if (coherent(msg.op))
        checkLine(when, cache::lineAlign(msg.addr));
}

void
InvariantMonitor::replay(const trace::EciTrace &trace)
{
    for (const trace::TraceRecord &rec : trace.records())
        observe(rec.when, rec.msg);
}

void
InvariantMonitor::checkAllLines()
{
    std::set<Addr> lines;
    auto collect = [&lines](cache::Cache *c) {
        if (!c)
            return;
        c->forEachLine([&lines](Addr line, cache::MoesiState) {
            lines.insert(line);
        });
    };
    collect(hooks_.cpuCache);
    collect(hooks_.fpgaCache);
    for (Addr line : lines)
        checkLine(0, line);
}

void
InvariantMonitor::finalize()
{
    checker_.finalize();
}

std::vector<std::string>
InvariantMonitor::violations() const
{
    std::vector<std::string> all = checker_.violations();
    all.insert(all.end(), liveViolations_.begin(),
               liveViolations_.end());
    return all;
}

} // namespace enzian::verif
