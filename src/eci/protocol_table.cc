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
    return proto::homeRead(local, dir, exclusive, allocate);
}

HomeUpgradeStep
ProtocolTable::homeUpgrade(MoesiState local, MoesiState dir) const
{
    return proto::homeUpgrade(local, dir);
}

HomeWritebackStep
ProtocolTable::homeWriteback(MoesiState dir) const
{
    return proto::homeWriteback(dir);
}

MoesiState
ProtocolTable::homeEvict() const
{
    return proto::homeEvict();
}

SnoopKind
ProtocolTable::homeLocalReadSnoop(MoesiState local,
                                  MoesiState dir) const
{
    (void)local; // invalidate protocols decide on the directory alone
    return proto::homeLocalReadSnoop(dir);
}

SnoopKind
ProtocolTable::homeLocalWriteSnoop(MoesiState dir) const
{
    return proto::homeLocalWriteSnoop(dir);
}

MoesiState
ProtocolTable::homeSnoopResponse(Opcode ack) const
{
    return proto::homeSnoopResponse(ack);
}

MoesiState
ProtocolTable::remoteFillState(Grant g) const
{
    return proto::remoteFillState(g);
}

RemoteWriteStep
ProtocolTable::remoteWrite(MoesiState s) const
{
    return proto::remoteWrite(s);
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
    return proto::remoteEvict(s);
}

RemoteSnoopStep
ProtocolTable::remoteSnoop(MoesiState s, Opcode snoop) const
{
    return proto::remoteSnoop(s, snoop);
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
            proto::homeRead(local, dir, exclusive, allocate);
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
        RemoteWriteStep step = proto::remoteWrite(s);
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
        return proto::homeLocalReadSnoop(dir);
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

std::vector<std::string>
protocolNames()
{
    std::vector<std::string> names;
    for (const ProtocolTable *p : allProtocols())
        names.emplace_back(p->name());
    return names;
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
