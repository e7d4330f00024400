/**
 * @file
 * Abstract per-line protocol model (implementation).
 */

#include "verif/model.hh"

#include "base/logging.hh"
#include "eci/protocol_table.hh"

namespace enzian::verif {

using cache::MoesiState;
using eci::Grant;
using eci::Opcode;
namespace proto = eci::proto;

namespace {

/**
 * Mutation injection: a decorator over the protocol table under test
 * that mis-applies exactly one decision. Mutations that target wire
 * behaviour rather than a table decision (DropSnoopInvalidation,
 * DropWritebackAck) are injected by the model itself.
 */
class MutatedTable final : public proto::ProtocolTable
{
  public:
    MutatedTable(const proto::ProtocolTable &base, Mutation m)
        : base_(base), m_(m)
    {
    }

    const char *name() const override { return base_.name(); }
    const char *description() const override
    {
        return base_.description();
    }

    std::vector<MoesiState>
    homeStableStates() const override
    {
        return base_.homeStableStates();
    }

    proto::HomeReadStep
    homeRead(MoesiState local, MoesiState dir, bool exclusive,
             bool allocate) const override
    {
        proto::HomeReadStep step =
            base_.homeRead(local, dir, exclusive, allocate);
        if (m_ == Mutation::GrantExclusiveToSharer && !exclusive &&
            allocate && step.grant == Grant::Shared) {
            step.grant = Grant::Exclusive;
            step.dirAfter = MoesiState::Exclusive;
        }
        if (m_ == Mutation::SharedReadSkipsFlush &&
            step.localAction == proto::LocalAction::DowngradeShared) {
            step.flushLocalDirty = false;
        }
        return step;
    }

    proto::HomeUpgradeStep
    homeUpgrade(MoesiState local, MoesiState dir) const override
    {
        proto::HomeUpgradeStep step = base_.homeUpgrade(local, dir);
        if (m_ == Mutation::UpgradeKeepsHomeCopy &&
            step.localAction == proto::LocalAction::Invalidate) {
            step.localAction = proto::LocalAction::Keep;
        }
        if (m_ == Mutation::UpdateLeaksExclusive &&
            step.grant == Grant::Owned) {
            step.grant = Grant::Exclusive;
        }
        return step;
    }

    proto::HomeWritebackStep
    homeWriteback(MoesiState dir) const override
    {
        return base_.homeWriteback(dir);
    }

    MoesiState homeEvict() const override { return base_.homeEvict(); }

    proto::SnoopKind
    homeLocalReadSnoop(MoesiState local, MoesiState dir) const override
    {
        return base_.homeLocalReadSnoop(local, dir);
    }

    proto::SnoopKind
    homeLocalWriteSnoop(MoesiState dir) const override
    {
        return base_.homeLocalWriteSnoop(dir);
    }

    MoesiState
    homeSnoopResponse(Opcode ack) const override
    {
        return base_.homeSnoopResponse(ack);
    }

    MoesiState
    remoteFillState(Grant g) const override
    {
        return base_.remoteFillState(g);
    }

    proto::RemoteWriteStep
    remoteWrite(MoesiState s) const override
    {
        return base_.remoteWrite(s);
    }

    MoesiState
    remoteUpgradeResult(Grant g) const override
    {
        return base_.remoteUpgradeResult(g);
    }

    Opcode
    remoteEvict(MoesiState s) const override
    {
        if (m_ == Mutation::SkipWritebackOnEvict)
            return Opcode::REVC;
        return base_.remoteEvict(s);
    }

    proto::RemoteSnoopStep
    remoteSnoop(MoesiState s, Opcode snoop) const override
    {
        return base_.remoteSnoop(s, snoop);
    }

  private:
    const proto::ProtocolTable &base_;
    Mutation m_;
};

} // namespace

std::string
Msg::toString() const
{
    std::string s = eci::toString(op);
    if (op == Opcode::PEMD)
        s += grant == Grant::Exclusive ? "(E)" : "(S)";
    if (hasData)
        s += "+d";
    return s;
}

const char *
toString(RemoteTxn t)
{
    switch (t) {
      case RemoteTxn::None:
        return "-";
      case RemoteTxn::Read:
        return "rd";
      case RemoteTxn::WriteMiss:
        return "wr";
      case RemoteTxn::Upgrade:
        return "upg";
      case RemoteTxn::Writeback:
        return "wb";
      case RemoteTxn::Evict:
        return "evc";
      case RemoteTxn::UncachedRead:
        return "urd";
      case RemoteTxn::UncachedWrite:
        return "uwr";
    }
    return "?";
}

const char *
toString(HomeOp o)
{
    switch (o) {
      case HomeOp::None:
        return "-";
      case HomeOp::Read:
        return "rd";
      case HomeOp::Write:
        return "wr";
    }
    return "?";
}

const char *
toString(Mutation m)
{
    switch (m) {
      case Mutation::None:
        return "none";
      case Mutation::GrantExclusiveToSharer:
        return "grant-exclusive-to-sharer";
      case Mutation::SkipWritebackOnEvict:
        return "skip-writeback-on-evict";
      case Mutation::UpgradeKeepsHomeCopy:
        return "upgrade-keeps-home-copy";
      case Mutation::DropSnoopInvalidation:
        return "drop-snoop-invalidation";
      case Mutation::DropWritebackAck:
        return "drop-writeback-ack";
      case Mutation::SharedReadSkipsFlush:
        return "shared-read-skips-flush";
      case Mutation::UpdateLeaksExclusive:
        return "update-leaks-exclusive";
    }
    return "?";
}

std::optional<Mutation>
mutationFromString(const std::string &name)
{
    if (name == "none")
        return Mutation::None;
    for (Mutation m : allMutations) {
        if (name == toString(m))
            return m;
    }
    return std::nullopt;
}

bool
mutationApplies(Mutation m, const std::string &protocol)
{
    switch (m) {
      case Mutation::None:
      case Mutation::GrantExclusiveToSharer:
      case Mutation::SkipWritebackOnEvict:
      case Mutation::DropSnoopInvalidation:
      case Mutation::DropWritebackAck:
        return true;
      case Mutation::UpgradeKeepsHomeCopy:
        // Dragon upgrades never invalidate the home copy (that is
        // the point of the protocol), so there is no decision to
        // corrupt there.
        return protocol != "dragon";
      case Mutation::SharedReadSkipsFlush:
        // Only MESI downgrades-with-flush on shared reads; MOESI
        // keeps the dirty copy Owned, no flush exists to skip.
        return protocol == "mesi";
      case Mutation::UpdateLeaksExclusive:
        // Grant::Owned is produced by update upgrades only.
        return protocol == "dragon";
    }
    return false;
}

std::string
State::key() const
{
    std::string k;
    k.reserve(16 + toHome.size() + toRemote.size() + deferred.size());
    auto st = [](MoesiState s) {
        return static_cast<char>('0' + static_cast<int>(s));
    };
    k += st(home);
    k += st(dir);
    k += st(remote);
    k += static_cast<char>('a' + static_cast<int>(rtxn));
    k += invalAfterFill ? '!' : '.';
    k += static_cast<char>('a' + static_cast<int>(hop));
    auto msgs = [&k](const std::vector<Msg> &v) {
        k += '|';
        for (const Msg &m : v) {
            k += static_cast<char>('A' + static_cast<int>(m.op));
            k += static_cast<char>('0' + static_cast<int>(m.grant) * 2 +
                                  (m.hasData ? 1 : 0));
        }
    };
    msgs(toHome);
    msgs(toRemote);
    msgs(deferred);
    return k;
}

std::string
State::toString() const
{
    std::string s = format("home=%s dir=%s remote=%s rtxn=%s hop=%s",
                           cache::toString(home), cache::toString(dir),
                           cache::toString(remote),
                           verif::toString(rtxn), verif::toString(hop));
    if (invalAfterFill)
        s += " inval-after-fill";
    auto wire = [&s](const char *name, const std::vector<Msg> &v) {
        if (v.empty())
            return;
        s += format(" %s=[", name);
        for (std::size_t i = 0; i < v.size(); ++i)
            s += (i ? "," : "") + v[i].toString();
        s += "]";
    };
    wire("toHome", toHome);
    wire("toRemote", toRemote);
    wire("deferred", deferred);
    return s;
}

bool
State::quiescent() const
{
    return rtxn == RemoteTxn::None && hop == HomeOp::None &&
           toHome.empty() && toRemote.empty() && deferred.empty() &&
           !invalAfterFill;
}

Model::Model(const Options &opt) : opt_(opt)
{
    const proto::ProtocolTable *base =
        proto::protocolByName(opt_.protocol);
    ENZIAN_ASSERT(base, "unknown protocol '%s'",
                  opt_.protocol.c_str());
    if (opt_.mutation != Mutation::None) {
        mutated_ = std::make_unique<MutatedTable>(*base, opt_.mutation);
        table_ = mutated_.get();
    } else {
        table_ = base;
    }
}

Model::~Model() = default;

std::vector<State>
Model::initialStates() const
{
    // The home node can legitimately hold its own line in any stable
    // state while the remote holds nothing: S/E/M via ordinary local
    // caching, O (where the table allows it) as the residue of a past
    // remote sharing episode (M -> O downgrade, remote later evicted
    // cleanly).
    std::vector<State> init;
    for (MoesiState h : table_->homeStableStates()) {
        State s;
        s.home = h;
        init.push_back(s);
    }
    return init;
}

std::vector<Transition>
Model::successors(const State &s) const
{
    std::vector<Transition> out;
    initiations(s, out);
    deliveries(s, out);
    return out;
}

void
Model::initiations(const State &s, std::vector<Transition> &out) const
{
    remoteInitiated(s, out);
    homeInitiated(s, out);
}

void
Model::remoteInitiated(const State &s,
                       std::vector<Transition> &out) const
{
    if (s.rtxn != RemoteTxn::None)
        return; // the line is busy at the remote agent

    if (opt_.uncachedRemote) {
        {
            Transition t;
            t.label = "R:uncached-read(RLDI)";
            t.to = s;
            t.to.toHome.push_back({Opcode::RLDI, Grant::Shared, false});
            t.to.rtxn = RemoteTxn::UncachedRead;
            out.push_back(std::move(t));
        }
        {
            Transition t;
            t.label = "R:uncached-write(RSTT)";
            t.to = s;
            t.to.toHome.push_back({Opcode::RSTT, Grant::Shared, true});
            t.to.rtxn = RemoteTxn::UncachedWrite;
            out.push_back(std::move(t));
        }
        return;
    }

    // Coherent cached read: a resident line is a hit (no protocol
    // action); a miss issues RLDD.
    if (s.remote == MoesiState::Invalid) {
        Transition t;
        t.label = "R:read-miss(RLDD)";
        t.to = s;
        t.to.toHome.push_back({Opcode::RLDD, Grant::Shared, false});
        t.to.rtxn = RemoteTxn::Read;
        out.push_back(std::move(t));
    }

    // Coherent cached write.
    const proto::RemoteWriteStep w = table_->remoteWrite(s.remote);
    if (w.hit) {
        if (s.remote != w.stateAfter) {
            Transition t;
            t.label = "R:write-hit(E->M)";
            t.to = s;
            t.to.remote = w.stateAfter;
            out.push_back(std::move(t));
        }
    } else {
        Transition t;
        t.label = format("R:write-miss(%s)", eci::toString(w.request));
        t.to = s;
        // A Dragon RUPD carries the full write payload; RLDX / RUPG
        // requests are dataless.
        t.to.toHome.push_back({w.request, Grant::Shared,
                               w.request == Opcode::RUPD});
        t.to.rtxn = (w.request == Opcode::RUPG ||
                     w.request == Opcode::RUPD)
                        ? RemoteTxn::Upgrade
                        : RemoteTxn::WriteMiss;
        out.push_back(std::move(t));
    }

    // Eviction of a resident line.
    if (s.remote != MoesiState::Invalid) {
        const Opcode op = table_->remoteEvict(s.remote);
        Transition t;
        t.label = format("R:evict(%s)", eci::toString(op));
        t.to = s;
        const bool carries = op == Opcode::RWBD;
        t.to.toHome.push_back({op, Grant::Shared, carries});
        t.to.remote = MoesiState::Invalid;
        t.to.rtxn =
            carries ? RemoteTxn::Writeback : RemoteTxn::Evict;
        if (cache::isDirty(s.remote) && !carries) {
            t.violations.push_back(format(
                "dirty remote copy (%s) dropped without a writeback",
                cache::toString(s.remote)));
        }
        out.push_back(std::move(t));
    }
}

void
Model::homeInitiated(const State &s,
                     std::vector<Transition> &out) const
{
    if (s.hop != HomeOp::None)
        return; // one home-local access at a time per line

    // Home-local read: only protocol-visible when the table demands a
    // snoop (the remote holds the freshest copy and no resident home
    // copy is kept current by updates).
    if (table_->homeLocalReadSnoop(s.home, s.dir) ==
        proto::SnoopKind::Forward) {
        Transition t;
        t.label = "H:local-read(SFWD)";
        t.to = s;
        t.to.toRemote.push_back({Opcode::SFWD, Grant::Shared, false});
        t.to.hop = HomeOp::Read;
        out.push_back(std::move(t));
    }

    // Home-local write: invalidates any remote copy first; otherwise
    // it only drops the home's own copy (the full-line write to the
    // source supersedes its data, dirty or not).
    if (table_->homeLocalWriteSnoop(s.dir) ==
        proto::SnoopKind::Invalidate) {
        Transition t;
        t.label = "H:local-write(SINV)";
        t.to = s;
        t.to.toRemote.push_back({Opcode::SINV, Grant::Shared, false});
        t.to.hop = HomeOp::Write;
        out.push_back(std::move(t));
    } else if (s.home != MoesiState::Invalid) {
        Transition t;
        t.label = "H:local-write";
        t.to = s;
        t.to.home = MoesiState::Invalid;
        out.push_back(std::move(t));
    }
}

void
Model::deliveries(const State &s, std::vector<Transition> &out) const
{
    const std::size_t nh = opt_.orderedDelivery
                               ? (s.toHome.empty() ? 0 : 1)
                               : s.toHome.size();
    for (std::size_t i = 0; i < nh; ++i)
        out.push_back(deliverToHome(s, i));
    const std::size_t nr = opt_.orderedDelivery
                               ? (s.toRemote.empty() ? 0 : 1)
                               : s.toRemote.size();
    for (std::size_t i = 0; i < nr; ++i)
        out.push_back(deliverToRemote(s, i));
}

void
Model::processAtHome(State &st, const Msg &m, Transition &t) const
{
    switch (m.op) {
      case Opcode::RLDD:
      case Opcode::RLDI:
      case Opcode::RLDX: {
        const bool exclusive = m.op == Opcode::RLDX;
        const bool allocate = m.op != Opcode::RLDI;
        const proto::HomeReadStep step =
            table_->homeRead(st.home, st.dir, exclusive, allocate);
        if (step.localAction == proto::LocalAction::Invalidate &&
            cache::isDirty(st.home) && !step.flushLocalDirty) {
            t.violations.push_back(format(
                "dirty home copy (%s) dropped serving %s",
                cache::toString(st.home), eci::toString(m.op)));
        }
        if (step.localAction == proto::LocalAction::DowngradeShared &&
            cache::isDirty(st.home) && !step.flushLocalDirty) {
            t.violations.push_back(format(
                "dirty home copy (%s) downgraded without a flush "
                "serving %s",
                cache::toString(st.home), eci::toString(m.op)));
        }
        st.home = step.localAfter;
        st.dir = step.dirAfter;
        st.toRemote.push_back({Opcode::PEMD, step.grant, true});
        return;
      }
      case Opcode::RUPG:
      case Opcode::RUPD: {
        const proto::HomeUpgradeStep step =
            table_->homeUpgrade(st.home, st.dir);
        if (!step.legal) {
            t.violations.push_back(
                format("illegal %s with dir=%s home=%s",
                       eci::toString(m.op), cache::toString(st.dir),
                       cache::toString(st.home)));
        }
        switch (step.localAction) {
          case proto::LocalAction::Invalidate:
            // The requester's full-line write supersedes the home
            // copy's data, so dropping even a dirty copy is sound.
            st.home = MoesiState::Invalid;
            break;
          case proto::LocalAction::DowngradeShared:
            // Update protocols: the RUPD payload refreshed the home
            // copy, which stays resident and clean.
            st.home = MoesiState::Shared;
            break;
          case proto::LocalAction::Keep:
          case proto::LocalAction::DowngradeOwned:
            break;
        }
        st.dir = step.legal ? step.dirAfter : MoesiState::Modified;
        st.toRemote.push_back({Opcode::PACK, step.grant, false});
        return;
      }
      case Opcode::RWBD: {
        if (opt_.mutation == Mutation::DropWritebackAck)
            return; // home swallows the writeback: no ack, no state
        const proto::HomeWritebackStep step =
            table_->homeWriteback(st.dir);
        if (!step.legal) {
            t.violations.push_back(format("illegal RWBD with dir=%s",
                                          cache::toString(st.dir)));
        }
        st.dir = step.dirAfter;
        st.toRemote.push_back({Opcode::PACK, Grant::Shared, false});
        return;
      }
      case Opcode::REVC:
        st.dir = table_->homeEvict();
        st.toRemote.push_back({Opcode::PACK, Grant::Shared, false});
        return;
      case Opcode::RSTT:
        // Full-line uncached store: supersedes the home's own copy.
        st.home = MoesiState::Invalid;
        st.toRemote.push_back({Opcode::PACK, Grant::Shared, false});
        return;
      default:
        t.violations.push_back(format("home received unexpected %s",
                                      eci::toString(m.op)));
        return;
    }
}

Transition
Model::deliverToHome(const State &s, std::size_t idx) const
{
    Transition t;
    const Msg m = s.toHome[idx];
    t.label = format("deliver->home %s", m.toString().c_str());
    t.to = s;
    t.to.toHome.erase(t.to.toHome.begin() +
                      static_cast<std::ptrdiff_t>(idx));

    switch (m.op) {
      case Opcode::RLDD:
      case Opcode::RLDX:
      case Opcode::RLDI:
      case Opcode::RSTT:
      case Opcode::RUPG:
      case Opcode::RUPD:
      case Opcode::RWBD:
      case Opcode::REVC:
        if (t.to.hop != HomeOp::None) {
            // The home line is busy with a local access; the request
            // parks until the snoop response frees the line.
            t.label += " (deferred: line busy)";
            t.to.deferred.push_back(m);
            return t;
        }
        processAtHome(t.to, m, t);
        return t;

      case Opcode::SACKS:
      case Opcode::SACKI: {
        if (t.to.hop == HomeOp::None) {
            t.violations.push_back(
                "snoop response with no outstanding snoop");
            return t;
        }
        const HomeOp hop = t.to.hop;
        t.to.hop = HomeOp::None;
        if (m.op == Opcode::SACKS) {
            if (hop != HomeOp::Read) {
                t.violations.push_back(
                    "SACKS answering a write snoop");
            }
            t.to.dir = table_->homeSnoopResponse(m.op);
        } else if (hop == HomeOp::Write) {
            // The local write proceeds; any forwarded dirty data is
            // superseded by the full-line write.
            t.to.dir = table_->homeSnoopResponse(m.op);
            t.to.home = MoesiState::Invalid;
        } else if (m.hasData) {
            // Read snoop answered by an invalidation carrying dirty
            // data (reordering-tolerant path).
            t.to.dir = table_->homeSnoopResponse(m.op);
        } else {
            // Snoop miss: the remote evicted concurrently; leave the
            // directory for the in-flight eviction to clear and let
            // the local read retry later.
        }
        // The freed line drains any parked requests in arrival order.
        while (!t.to.deferred.empty()) {
            const Msg d = t.to.deferred.front();
            t.to.deferred.erase(t.to.deferred.begin());
            processAtHome(t.to, d, t);
        }
        return t;
      }
      default:
        t.violations.push_back(format("home received unexpected %s",
                                      eci::toString(m.op)));
        return t;
    }
}

Transition
Model::deliverToRemote(const State &s, std::size_t idx) const
{
    Transition t;
    const Msg m = s.toRemote[idx];
    t.label = format("deliver->remote %s", m.toString().c_str());
    t.to = s;
    t.to.toRemote.erase(t.to.toRemote.begin() +
                        static_cast<std::ptrdiff_t>(idx));

    switch (m.op) {
      case Opcode::PEMD:
        switch (t.to.rtxn) {
          case RemoteTxn::Read:
            t.to.remote = t.to.invalAfterFill
                              ? MoesiState::Invalid
                              : table_->remoteFillState(m.grant);
            t.to.invalAfterFill = false;
            t.to.rtxn = RemoteTxn::None;
            return t;
          case RemoteTxn::WriteMiss:
            if (t.to.invalAfterFill) {
                // The snoop ordered ahead of our write; install,
                // drop, and push the dirty result home.
                t.to.invalAfterFill = false;
                t.to.remote = MoesiState::Invalid;
                t.to.toHome.push_back(
                    {Opcode::RWBD, Grant::Shared, true});
                t.to.rtxn = RemoteTxn::Writeback;
                return t;
            }
            t.to.remote = MoesiState::Modified;
            t.to.rtxn = RemoteTxn::None;
            return t;
          case RemoteTxn::UncachedRead:
            t.to.rtxn = RemoteTxn::None;
            return t;
          default:
            t.violations.push_back(
                format("PEMD with no matching request (rtxn=%s)",
                       toString(t.to.rtxn)));
            return t;
        }
      case Opcode::PACK:
        switch (t.to.rtxn) {
          case RemoteTxn::Upgrade:
            // Covers the in-place upgrade, the racing-SINV fallback
            // where the full write payload is installed, and the
            // update-grant case (Grant::Owned: sharers survive, the
            // writer continues dirty but non-exclusive).
            t.to.remote = table_->remoteUpgradeResult(m.grant);
            t.to.rtxn = RemoteTxn::None;
            return t;
          case RemoteTxn::Writeback:
          case RemoteTxn::Evict:
          case RemoteTxn::UncachedWrite:
            t.to.rtxn = RemoteTxn::None;
            return t;
          default:
            t.violations.push_back(
                format("PACK with no matching request (rtxn=%s)",
                       toString(t.to.rtxn)));
            return t;
        }
      case Opcode::SFWD:
      case Opcode::SINV: {
        const proto::RemoteSnoopStep step =
            table_->remoteSnoop(t.to.remote, m.op);
        if (opt_.mutation == Mutation::DropSnoopInvalidation &&
            m.op == Opcode::SINV) {
            // Ack the invalidation but keep the copy.
            t.to.toHome.push_back(
                {Opcode::SACKI, Grant::Shared, false});
            return t;
        }
        if (cache::isDirty(t.to.remote) &&
            step.stateAfter == MoesiState::Invalid && !step.hasData) {
            t.violations.push_back(format(
                "dirty remote copy (%s) invalidated without data",
                cache::toString(t.to.remote)));
        }
        t.to.remote = step.stateAfter;
        if (m.op == Opcode::SINV &&
            (t.to.rtxn == RemoteTxn::Read ||
             t.to.rtxn == RemoteTxn::WriteMiss)) {
            // A fill for this line is in flight; remember to drop it
            // on arrival.
            t.to.invalAfterFill = true;
        }
        t.to.toHome.push_back(
            {step.response, Grant::Shared, step.hasData});
        return t;
      }
      default:
        t.violations.push_back(format("remote received unexpected %s",
                                      eci::toString(m.op)));
        return t;
    }
}

} // namespace enzian::verif
