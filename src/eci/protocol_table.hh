/**
 * @file
 * Pluggable coherence-protocol tables.
 *
 * A ProtocolTable bundles every protocol *decision* the two engines
 * (eci::HomeAgent, eci::RemoteAgent) and the exhaustive model checker
 * (verif::Model) consult: what a home read grants, which request a
 * remote write issues, how snoops are answered. Every decision is a
 * side-effect-free function of MOESI state: the engines call it and
 * then perform the timing, queuing and data movement, and the checker
 * calls the *same* function to enumerate the reachable state space.
 * One source of truth: a protocol change is immediately re-verified,
 * and a checker result is a statement about the shipped engines, not
 * about a hand-maintained copy of the protocol. The base class is the
 * shipped ECI/MOESI; variants override only the decisions that differ
 * and are re-verified by the same checker.
 *
 * Decisions that can be handed an illegal input (a writeback from a
 * non-owner, an upgrade race) report it through a `legal` flag instead
 * of asserting, so the checker can classify the dead state; the
 * engines assert on `!legal`.
 *
 * Shipped tables:
 *  - "moesi":  the ECI protocol as described in the paper (default);
 *  - "mesi":   simplified invalidate protocol without the Owned
 *              state — a shared read of a dirty home copy flushes the
 *              data to the source and downgrades to Shared instead of
 *              keeping an Owned copy;
 *  - "dragon": update-based writes in the style of the Dragon
 *              protocol — a write to a Shared/Owned line sends a
 *              full-line RUPD that refreshes the home's surviving
 *              copy; the writer continues in Owned and updates on
 *              every subsequent write instead of invalidating.
 *
 * Tables are stateless singletons; agents and the checker hold a
 * `const ProtocolTable *` and never own it.
 */

#ifndef ENZIAN_ECI_PROTOCOL_TABLE_HH
#define ENZIAN_ECI_PROTOCOL_TABLE_HH

#include <string>
#include <vector>

#include "cache/moesi.hh"
#include "eci/eci_msg.hh"

namespace enzian::eci::proto {

/** What a home-side step does to the home node's own cached copy. */
enum class LocalAction : std::uint8_t {
    Keep,            ///< leave the local copy untouched
    Invalidate,      ///< drop the local copy
    DowngradeOwned,  ///< keep the copy but fall back to Owned
    DowngradeShared, ///< keep the copy but fall back to Shared
                     ///< (MESI shared read: dirty data flushes first;
                     ///< Dragon update: payload refreshes the copy)
};

/** Decision for serving RLDD / RLDX / RLDI at the home node. */
struct HomeReadStep
{
    Grant grant;                    ///< permission carried by the PEMD
    cache::MoesiState dirAfter;     ///< directory state after the grant
    LocalAction localAction;        ///< effect on the home's own copy
    cache::MoesiState localAfter;   ///< home cache state after the step
    bool flushLocalDirty;           ///< invalidated copy was dirty;
                                    ///< home must push it to the source
};

/** Decision for serving RUPG (or a table's RUPD) at the home node. */
struct HomeUpgradeStep
{
    bool legal;                   ///< directory state permitted the RUPG
    cache::MoesiState dirAfter;   ///< Modified when legal
    LocalAction localAction;      ///< home copy is invalidated
    /** Permission carried by the PACK; Grant::Owned tells the writer
     *  other copies survive (update protocols). */
    Grant grant = Grant::Exclusive;
    /** The request payload refreshes the home's surviving copy
     *  (update protocols serving RUPD). */
    bool updateData = false;
};

/** Decision for serving RWBD (dirty writeback) at the home node. */
struct HomeWritebackStep
{
    bool legal;                 ///< requester owned the line, or the
                                ///< writeback lost a race (see below)
    bool commitData;            ///< write the payload to the source
    cache::MoesiState dirAfter; ///< Invalid when legal
};

/** Which snoop (if any) a home-initiated access must send first. */
enum class SnoopKind : std::uint8_t {
    None,       ///< no remote copy stands in the way
    Forward,    ///< SFWD: downgrade the remote owner and fetch data
    Invalidate, ///< SINV: invalidate the remote copy
};

/** Decision for a coherent cached write at the remote node. */
struct RemoteWriteStep
{
    bool hit;                      ///< write completes locally
    cache::MoesiState stateAfter;  ///< Modified on a hit
    Opcode request;                ///< RUPG or RLDX when !hit
};

/** Decision for answering a snoop at the remote node. */
struct RemoteSnoopStep
{
    bool hit;                     ///< snoop found a resident copy
    Opcode response;              ///< SACKS or SACKI
    cache::MoesiState stateAfter; ///< remote cache state after the ack
    bool hasData;                 ///< the ack carries the line payload
};

/** Protocol decision table; the base class is the shipped MOESI. */
class ProtocolTable
{
  public:
    virtual ~ProtocolTable() = default;

    /** Registry name ("moesi", "mesi", "dragon"). */
    virtual const char *name() const = 0;
    /** One-line description for --list-protocols. */
    virtual const char *description() const = 0;

    /** Home cache states a line may start in (MESI has no Owned). */
    virtual std::vector<cache::MoesiState> homeStableStates() const;

    // Home-side decisions.
    /**
     * Serve a coherent read at the home node.
     *
     * @param local home node's own cache state for the line
     * @param dir directory state tracked for the remote node
     * @param exclusive RLDX (true) vs RLDD/RLDI (false)
     * @param allocate requester will cache the line (RLDD/RLDX)
     */
    virtual HomeReadStep homeRead(cache::MoesiState local,
                                  cache::MoesiState dir, bool exclusive,
                                  bool allocate) const;
    /**
     * Serve an S->M upgrade. Legal from directory state Shared, and
     * from Invalid: a home-initiated SINV can race with an in-flight
     * RUPG (the snoop consumes the requester's Shared copy before the
     * deferred upgrade is processed). Because an ECI cached write
     * carries the full new line, the home can still grant Modified —
     * the requester installs its complete write payload rather than
     * upgrading the (gone) copy.
     */
    virtual HomeUpgradeStep homeUpgrade(cache::MoesiState local,
                                        cache::MoesiState dir) const;
    /**
     * Serve a dirty writeback. Legal from remote M, O or E (data is
     * committed), and from Invalid *without* committing data: a
     * home-initiated SINV can race with an in-flight RWBD, in which
     * case the home's own write was serialized after the eviction and
     * the writeback payload is stale.
     */
    virtual HomeWritebackStep homeWriteback(cache::MoesiState dir) const;
    /** Directory state after a clean-eviction notice (REVC). */
    virtual cache::MoesiState homeEvict() const;
    /** Snoop needed before the home node reads its own line locally.
     *  @p local lets update protocols serve home reads from the copy
     *  their updates keep fresh instead of forwarding. */
    virtual SnoopKind homeLocalReadSnoop(cache::MoesiState local,
                                         cache::MoesiState dir) const;
    /** Snoop needed before the home node writes its own line locally. */
    virtual SnoopKind homeLocalWriteSnoop(cache::MoesiState dir) const;
    /** Directory state after a snoop response (SACKS or SACKI). */
    virtual cache::MoesiState homeSnoopResponse(Opcode ack) const;

    // Remote-side decisions.
    /** Cache state a remote fill installs for the given grant. */
    virtual cache::MoesiState remoteFillState(Grant g) const;
    /** Classify a remote cached write against the current line state. */
    virtual RemoteWriteStep remoteWrite(cache::MoesiState s) const;
    /** Cache state a PACK answering RUPG/RUPD installs. */
    virtual cache::MoesiState remoteUpgradeResult(Grant g) const;
    /** Request opcode a remote eviction must emit (RWBD or REVC). */
    virtual Opcode remoteEvict(cache::MoesiState s) const;
    /**
     * Answer a home-initiated snoop (SFWD or SINV) from remote state
     * @p s. An SFWD that finds nothing resident (the holder evicted
     * concurrently; its RWBD/REVC is in flight toward the home) is a
     * snoop miss answered with a clean SACKI — the home must let the
     * in-flight eviction drain and retry its local access.
     */
    virtual RemoteSnoopStep remoteSnoop(cache::MoesiState s,
                                        Opcode snoop) const;
};

/** The shipped ECI/MOESI table (also the engines' default). */
const ProtocolTable &moesiProtocol();

/** Simplified MESI (no Owned state). */
const ProtocolTable &mesiProtocol();

/** Update-based Dragon-style table. */
const ProtocolTable &dragonProtocol();

/** All registered tables, in a fixed order. */
const std::vector<const ProtocolTable *> &allProtocols();

/** Look a table up by name; nullptr if unknown. */
const ProtocolTable *protocolByName(const std::string &name);

} // namespace enzian::eci::proto

#endif // ENZIAN_ECI_PROTOCOL_TABLE_HH
