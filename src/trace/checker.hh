/**
 * @file
 * ECI protocol assertion checker.
 *
 * The paper's group "formally specified several layers of the
 * protocol, and generated formatters and assertion checkers from the
 * specifications" (section 4.1). This checker is the runtime
 * equivalent: it replays a captured trace and checks
 *
 *  - response matching: every PEMD/PACK/PNAK answers exactly one
 *    outstanding request with the same transaction id, and every
 *    snoop response answers an outstanding snoop;
 *  - permission soundness: the MOESI states the two nodes can be
 *    inferred to hold for a line are pairwise compatible (never two
 *    writers, never a writer beside a reader);
 *  - writeback legality: RWBD only from a node that was granted
 *    ownership.
 *
 * Violations are collected, not thrown, so tests can assert both
 * clean traces and deliberately corrupted ones.
 */

#ifndef ENZIAN_TRACE_CHECKER_HH
#define ENZIAN_TRACE_CHECKER_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cache/moesi.hh"
#include "trace/eci_pcap.hh"

namespace enzian::trace {

/** Replay checker for ECI traces. */
class ProtocolChecker
{
  public:
    /**
     * Tolerate retransmission artifacts: duplicate request tids (also
     * after the request was answered), responses with no outstanding
     * request (a retry raced its original's reply), reused snoop
     * tids, and duplicate snoop responses are counted instead of
     * flagged. Used when checking
     * traces captured under fault injection, where the recovery path
     * legitimately re-sends messages with the same tid.
     */
    void setRetryTolerant(bool on) { retryTolerant_ = on; }

    /** Duplicate requests/snoops tolerated (retry-tolerant mode). */
    std::uint64_t retransmits() const { return retransmits_; }
    /** Unmatched responses tolerated (retry-tolerant mode). */
    std::uint64_t duplicateResponses() const { return dupResponses_; }

    /** Feed one message (in trace order). */
    void observe(const TraceRecord &rec);

    /** Feed an entire trace. */
    void check(const EciTrace &trace);

    /** Require all requests to have been answered (end of trace). */
    void finalize();

    const std::vector<std::string> &violations() const
    {
        return violations_;
    }
    bool clean() const { return violations_.empty(); }

    /** Inferred state of @p node for @p line. */
    cache::MoesiState inferredState(mem::NodeId node, Addr line) const;

  private:
    struct LineState
    {
        cache::MoesiState st[2] = {cache::MoesiState::Invalid,
                                   cache::MoesiState::Invalid};
    };

    void fail(const TraceRecord &rec, const std::string &why);
    void setState(const TraceRecord &rec, mem::NodeId node, Addr line,
                  cache::MoesiState st);

    std::map<Addr, LineState> lines_;
    /** Outstanding coherent/I-O requests keyed by (requester, tid). */
    std::map<std::pair<int, std::uint32_t>, eci::Opcode> outstanding_;
    /** Outstanding snoops keyed by (home node, tid). */
    std::map<std::pair<int, std::uint32_t>, eci::Opcode> snoops_;
    /**
     * Retry-tolerant mode: requests and snoops already answered (tids
     * are never reused), so a late retransmission is not a new one.
     */
    std::set<std::pair<int, std::uint32_t>> answered_;
    std::set<std::pair<int, std::uint32_t>> answeredSnoops_;
    std::vector<std::string> violations_;
    bool retryTolerant_ = false;
    std::uint64_t retransmits_ = 0;
    std::uint64_t dupResponses_ = 0;
};

} // namespace enzian::trace

#endif // ENZIAN_TRACE_CHECKER_HH
