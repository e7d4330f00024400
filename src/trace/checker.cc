/**
 * @file
 * Protocol checker implementation.
 */

#include "trace/checker.hh"

#include "base/logging.hh"
#include "trace/decoder.hh"

namespace enzian::trace {

using cache::MoesiState;
using eci::Opcode;

void
ProtocolChecker::fail(const TraceRecord &rec, const std::string &why)
{
    violations_.push_back(why + " [" + decodeLine(rec) + "]");
}

cache::MoesiState
ProtocolChecker::inferredState(mem::NodeId node, Addr line) const
{
    auto it = lines_.find(cache::lineAlign(line));
    if (it == lines_.end())
        return MoesiState::Invalid;
    return it->second.st[static_cast<std::size_t>(node)];
}

void
ProtocolChecker::setState(const TraceRecord &rec, mem::NodeId node,
                          Addr line, MoesiState st)
{
    LineState &ls = lines_[cache::lineAlign(line)];
    ls.st[static_cast<std::size_t>(node)] = st;
    if (!cache::compatible(ls.st[0], ls.st[1])) {
        fail(rec, format("incompatible states %s/%s for line %llx",
                         cache::toString(ls.st[0]),
                         cache::toString(ls.st[1]),
                         static_cast<unsigned long long>(line)));
    }
}

void
ProtocolChecker::observe(const TraceRecord &rec)
{
    const eci::EciMsg &m = rec.msg;
    const int src = static_cast<int>(m.src);
    const int dst = static_cast<int>(m.dst);
    const Addr line = cache::lineAlign(m.addr);

    switch (m.op) {
      // ---- requests -------------------------------------------------
      case Opcode::RLDD:
      case Opcode::RLDX:
      case Opcode::RLDI:
      case Opcode::RSTT:
      case Opcode::RUPG:
      case Opcode::RUPD:
      case Opcode::RWBD:
      case Opcode::REVC:
      case Opcode::IOBLD:
      case Opcode::IOBST: {
        auto key = std::make_pair(src, m.tid);
        if (outstanding_.count(key) || answered_.count(key)) {
            if (retryTolerant_) {
                // A retransmission of an in-flight request, or of one
                // whose answer was already on its way (its timer fired
                // first): do not re-apply its state transitions (an
                // RWBD already moved the line to Invalid; replaying
                // the dirty-state check would false-fail), and do not
                // wait for the home's replay, which may be lost once
                // the requester no longer needs it.
                ++retransmits_;
                return;
            }
            fail(rec, format("tid %u reused while outstanding", m.tid));
        }
        outstanding_[key] = m.op;
        if (m.op == Opcode::RWBD) {
            const MoesiState s = inferredState(m.src, line);
            if (!cache::isDirty(s) && s != MoesiState::Exclusive)
                fail(rec, format("writeback from state %s",
                                 cache::toString(s)));
            setState(rec, m.src, line, MoesiState::Invalid);
        }
        if (m.op == Opcode::RSTT) {
            // A full-line store invalidates the home's copy.
            setState(rec, m.dst, line, MoesiState::Invalid);
        }
        if (m.op == Opcode::REVC)
            setState(rec, m.src, line, MoesiState::Invalid);
        return;
      }

      // ---- responses ------------------------------------------------
      case Opcode::PEMD:
      case Opcode::PACK:
      case Opcode::PNAK:
      case Opcode::IOBACK: {
        auto key = std::make_pair(dst, m.tid);
        auto it = outstanding_.find(key);
        if (it == outstanding_.end()) {
            if (retryTolerant_) {
                // A replayed response whose original already matched.
                ++dupResponses_;
                return;
            }
            fail(rec, format("response without outstanding request"));
            return;
        }
        const Opcode req = it->second;
        outstanding_.erase(it);
        if (retryTolerant_)
            answered_.insert(key);
        if (m.op == Opcode::PEMD) {
            if (req != Opcode::RLDD && req != Opcode::RLDX &&
                req != Opcode::RLDI)
                fail(rec, "PEMD answering a non-read request");
            if (req != Opcode::RLDI) {
                setState(rec, m.dst, line,
                         m.grant == eci::Grant::Exclusive
                             ? MoesiState::Exclusive
                             : MoesiState::Shared);
                if (m.grant == eci::Grant::Exclusive) {
                    // Exclusivity implies the home gave up its copy.
                    setState(rec, m.src, line, MoesiState::Invalid);
                }
            }
        }
        if (m.op == Opcode::PACK &&
            (req == Opcode::RUPG || req == Opcode::RUPD)) {
            // Update protocols answer with Grant::Owned when other
            // copies survive the write.
            setState(rec, m.dst, line,
                     m.grant == eci::Grant::Owned ? MoesiState::Owned
                                                  : MoesiState::Modified);
        }
        return;
      }

      // ---- snoops ---------------------------------------------------
      case Opcode::SINV:
      case Opcode::SFWD: {
        auto key = std::make_pair(src, m.tid);
        if (snoops_.count(key) || answeredSnoops_.count(key)) {
            if (retryTolerant_) {
                ++retransmits_;
                return;
            }
            fail(rec, format("snoop tid %u reused", m.tid));
        }
        snoops_[key] = m.op;
        return;
      }
      case Opcode::SACKI:
      case Opcode::SACKS: {
        auto key = std::make_pair(dst, m.tid);
        auto it = snoops_.find(key);
        if (it == snoops_.end()) {
            if (retryTolerant_) {
                ++dupResponses_;
                return;
            }
            fail(rec, "snoop response without outstanding snoop");
            return;
        }
        snoops_.erase(it);
        if (retryTolerant_)
            answeredSnoops_.insert(key);
        setState(rec, m.src, line,
                 m.op == Opcode::SACKI ? MoesiState::Invalid
                                       : MoesiState::Shared);
        return;
      }

      case Opcode::IPI:
        return;
    }
    fail(rec, "unknown opcode");
}

void
ProtocolChecker::check(const EciTrace &trace)
{
    for (const auto &rec : trace.records())
        observe(rec);
}

void
ProtocolChecker::finalize()
{
    for (const auto &[key, op] : outstanding_) {
        violations_.push_back(
            format("request %s tid=%u from node %d never answered",
                   eci::toString(op), key.second, key.first));
    }
    for (const auto &[key, op] : snoops_) {
        violations_.push_back(
            format("snoop %s tid=%u from node %d never answered",
                   eci::toString(op), key.second, key.first));
    }
}

} // namespace enzian::trace
