/**
 * @file
 * Pluggable coherence-protocol tables (implementation).
 */

#include "eci/protocol_table.hh"

namespace enzian::eci::proto {

using cache::MoesiState;

std::vector<MoesiState>
ProtocolTable::homeStableStates() const
{
    return {MoesiState::Invalid, MoesiState::Shared,
            MoesiState::Exclusive, MoesiState::Owned,
            MoesiState::Modified};
}

HomeReadStep
ProtocolTable::homeRead(MoesiState local, MoesiState dir,
                        bool exclusive, bool allocate) const
{
    HomeReadStep step;
    const bool local_had_copy = local != MoesiState::Invalid;

    step.localAction = LocalAction::Keep;
    step.localAfter = local;
    step.flushLocalDirty = false;
    if (local_had_copy) {
        if (exclusive) {
            // Requester takes ownership; the home flushes its dirty
            // data to the source and drops the copy.
            step.localAction = LocalAction::Invalidate;
            step.localAfter = MoesiState::Invalid;
            step.flushLocalDirty = cache::isDirty(local);
        } else if (cache::isDirty(local) ||
                   local == MoesiState::Exclusive) {
            // Keep an owned copy; the home stays responsible for the
            // dirty data.
            step.localAction = LocalAction::DowngradeOwned;
            step.localAfter = MoesiState::Owned;
        }
    }

    if (exclusive) {
        step.grant = Grant::Exclusive;
    } else if (!local_had_copy && dir == MoesiState::Invalid &&
               allocate) {
        // No other copy anywhere: grant Exclusive so the requester can
        // write without an upgrade (standard MOESI optimization).
        step.grant = Grant::Exclusive;
    } else {
        step.grant = Grant::Shared;
    }

    step.dirAfter = dir;
    if (allocate) {
        step.dirAfter = step.grant == Grant::Exclusive
                            ? MoesiState::Exclusive
                            : MoesiState::Shared;
    }
    return step;
}

HomeUpgradeStep
ProtocolTable::homeUpgrade(MoesiState local, MoesiState dir) const
{
    HomeUpgradeStep step;
    // An RUPG is issued from Shared; directory Invalid means a
    // home-initiated SINV raced ahead and already consumed the
    // requester's copy — the full-line write payload lets the home
    // grant Modified regardless. A writable home copy beside a remote
    // sharer would already have been incoherent.
    step.legal = (dir == MoesiState::Shared ||
                  dir == MoesiState::Invalid) &&
                 !cache::canWrite(local);
    step.dirAfter = step.legal ? MoesiState::Modified : dir;
    step.localAction = local != MoesiState::Invalid
                           ? LocalAction::Invalidate
                           : LocalAction::Keep;
    return step;
}

HomeWritebackStep
ProtocolTable::homeWriteback(MoesiState dir) const
{
    HomeWritebackStep step;
    if (cache::isDirty(dir) || dir == MoesiState::Exclusive) {
        step.legal = true;
        step.commitData = true;
        step.dirAfter = MoesiState::Invalid;
        return step;
    }
    // Directory Invalid: a home-initiated SINV raced with this
    // writeback; the home's own (later-serialized) write supersedes
    // the payload, which must be dropped, not committed.
    step.legal = dir == MoesiState::Invalid;
    step.commitData = false;
    step.dirAfter = dir;
    return step;
}

MoesiState
ProtocolTable::homeEvict() const
{
    return MoesiState::Invalid;
}

SnoopKind
ProtocolTable::homeLocalReadSnoop(MoesiState local,
                                  MoesiState dir) const
{
    (void)local; // invalidate protocols decide on the directory alone
    // Remote holds the freshest copy: snoop-forward it.
    if (cache::canWrite(dir) || dir == MoesiState::Owned)
        return SnoopKind::Forward;
    return SnoopKind::None;
}

SnoopKind
ProtocolTable::homeLocalWriteSnoop(MoesiState dir) const
{
    return dir != MoesiState::Invalid ? SnoopKind::Invalidate
                                      : SnoopKind::None;
}

MoesiState
ProtocolTable::homeSnoopResponse(Opcode ack) const
{
    return ack == Opcode::SACKS ? MoesiState::Shared
                                : MoesiState::Invalid;
}

MoesiState
ProtocolTable::remoteFillState(Grant g) const
{
    return g == Grant::Exclusive ? MoesiState::Exclusive
                                 : MoesiState::Shared;
}

RemoteWriteStep
ProtocolTable::remoteWrite(MoesiState s) const
{
    RemoteWriteStep step;
    step.hit = cache::canWrite(s);
    step.stateAfter = step.hit ? MoesiState::Modified : s;
    step.request = (s == MoesiState::Shared || s == MoesiState::Owned)
                       ? Opcode::RUPG
                       : Opcode::RLDX;
    return step;
}

MoesiState
ProtocolTable::remoteUpgradeResult(Grant g) const
{
    // Grant::Owned tells the writer other copies survive (update
    // protocols); anything else means it is now the sole owner.
    return g == Grant::Owned ? MoesiState::Owned
                             : MoesiState::Modified;
}

Opcode
ProtocolTable::remoteEvict(MoesiState s) const
{
    return cache::isDirty(s) ? Opcode::RWBD : Opcode::REVC;
}

RemoteSnoopStep
ProtocolTable::remoteSnoop(MoesiState s, Opcode snoop) const
{
    RemoteSnoopStep step;
    if (snoop == Opcode::SFWD && s != MoesiState::Invalid) {
        step.hit = true;
        step.response = Opcode::SACKS;
        step.stateAfter = MoesiState::Shared;
        step.hasData = true;
        return step;
    }
    // SINV, or an SFWD that missed (concurrent eviction in flight):
    // the ack carries data iff the dropped copy was dirty.
    step.hit = s != MoesiState::Invalid;
    step.response = Opcode::SACKI;
    step.stateAfter = MoesiState::Invalid;
    step.hasData = cache::isDirty(s);
    return step;
}

namespace {

class MoesiTable final : public ProtocolTable
{
  public:
    const char *name() const override { return "moesi"; }

    const char *
    description() const override
    {
        return "shipped ECI MOESI (invalidate, Owned keeps dirty "
               "data shared)";
    }
};

/**
 * Simplified MESI: no Owned state anywhere. A shared read that finds
 * a dirty (or Exclusive) home copy flushes the data to the source and
 * downgrades the copy to plain Shared, so every resident copy is
 * either clean-shared or the unique writable one.
 */
class MesiTable final : public ProtocolTable
{
  public:
    const char *name() const override { return "mesi"; }

    const char *
    description() const override
    {
        return "simplified MESI (no Owned state; dirty home copies "
               "flush on shared reads)";
    }

    std::vector<MoesiState>
    homeStableStates() const override
    {
        return {MoesiState::Invalid, MoesiState::Shared,
                MoesiState::Exclusive, MoesiState::Modified};
    }

    HomeReadStep
    homeRead(MoesiState local, MoesiState dir, bool exclusive,
             bool allocate) const override
    {
        HomeReadStep step =
            ProtocolTable::homeRead(local, dir, exclusive, allocate);
        if (step.localAction == LocalAction::DowngradeOwned) {
            // MESI cannot keep a dirty copy shared: push the data to
            // the source first, then hold it clean-Shared.
            step.localAction = LocalAction::DowngradeShared;
            step.localAfter = MoesiState::Shared;
            step.flushLocalDirty = cache::isDirty(local);
        }
        return step;
    }
};

/**
 * Dragon-style update protocol. Writes to a line with other copies
 * outstanding send a full-line RUPD instead of invalidating: the home
 * refreshes its surviving copy from the payload, the writer continues
 * in Owned (dirty, not exclusive) and keeps updating on every write.
 * Reads, fills, snoops and writebacks stay MOESI.
 */
class DragonTable final : public ProtocolTable
{
  public:
    const char *name() const override { return "dragon"; }

    const char *
    description() const override
    {
        return "Dragon-style write-update (RUPD refreshes shared "
               "copies; writer stays Owned)";
    }

    RemoteWriteStep
    remoteWrite(MoesiState s) const override
    {
        RemoteWriteStep step = ProtocolTable::remoteWrite(s);
        if (!step.hit && step.request == Opcode::RUPG)
            step.request = Opcode::RUPD;
        return step;
    }

    HomeUpgradeStep
    homeUpgrade(MoesiState local, MoesiState dir) const override
    {
        // Unlike RUPG, an RUPD can arrive repeatedly from a writer
        // the directory already tracks as Owned (one update per
        // write), so dir == Owned is legal input here.
        HomeUpgradeStep step;
        step.legal = (dir == MoesiState::Shared ||
                      dir == MoesiState::Owned ||
                      dir == MoesiState::Invalid) &&
                     !cache::canWrite(local);
        if (!step.legal) {
            step.dirAfter = dir;
            step.localAction = local != MoesiState::Invalid
                                   ? LocalAction::Invalidate
                                   : LocalAction::Keep;
            return step;
        }
        if (local != MoesiState::Invalid) {
            // The home keeps its copy, refreshed from the update
            // payload (which supersedes even dirty local data); the
            // writer learns via Grant::Owned that sharers survive.
            step.localAction = LocalAction::DowngradeShared;
            step.updateData = true;
            step.grant = Grant::Owned;
            step.dirAfter = MoesiState::Owned;
        } else {
            // No surviving copy: the writer becomes the sole owner.
            step.localAction = LocalAction::Keep;
            step.grant = Grant::Exclusive;
            step.dirAfter = MoesiState::Modified;
        }
        return step;
    }

    SnoopKind
    homeLocalReadSnoop(MoesiState local, MoesiState dir) const override
    {
        // Updates keep a resident home copy fresh: read it directly.
        if (local != MoesiState::Invalid)
            return SnoopKind::None;
        return ProtocolTable::homeLocalReadSnoop(local, dir);
    }
};

const MoesiTable moesiTable;
const MesiTable mesiTable;
const DragonTable dragonTable;

} // namespace

const ProtocolTable &
moesiProtocol()
{
    return moesiTable;
}

const ProtocolTable &
mesiProtocol()
{
    return mesiTable;
}

const ProtocolTable &
dragonProtocol()
{
    return dragonTable;
}

const std::vector<const ProtocolTable *> &
allProtocols()
{
    static const std::vector<const ProtocolTable *> all = {
        &moesiTable, &mesiTable, &dragonTable};
    return all;
}

const ProtocolTable *
protocolByName(const std::string &name)
{
    for (const ProtocolTable *p : allProtocols()) {
        if (name == p->name())
            return p;
    }
    return nullptr;
}

} // namespace enzian::eci::proto
