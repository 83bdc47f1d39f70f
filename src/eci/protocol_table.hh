/**
 * @file
 * Pluggable coherence-protocol tables.
 *
 * A ProtocolTable bundles every protocol *decision* the two engines
 * (eci::HomeAgent, eci::RemoteAgent) and the exhaustive model checker
 * (verif::Model) consult: what a home read grants, which request a
 * remote write issues, how snoops are answered. The base class
 * implements the shipped ECI/MOESI behaviour by delegating to the
 * pure kernels in protocol_kernel.hh, so the historical "one source
 * of truth" property is preserved — variants override only the
 * decisions that differ and are re-verified by the same checker.
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

#include "eci/protocol_kernel.hh"

namespace enzian::eci::proto {

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
    virtual HomeReadStep homeRead(cache::MoesiState local,
                                  cache::MoesiState dir, bool exclusive,
                                  bool allocate) const;
    virtual HomeUpgradeStep homeUpgrade(cache::MoesiState local,
                                        cache::MoesiState dir) const;
    virtual HomeWritebackStep homeWriteback(cache::MoesiState dir) const;
    virtual cache::MoesiState homeEvict() const;
    /** @p local lets update protocols serve home reads from the copy
     *  their updates keep fresh instead of forwarding. */
    virtual SnoopKind homeLocalReadSnoop(cache::MoesiState local,
                                         cache::MoesiState dir) const;
    virtual SnoopKind homeLocalWriteSnoop(cache::MoesiState dir) const;
    virtual cache::MoesiState homeSnoopResponse(Opcode ack) const;

    // Remote-side decisions.
    virtual cache::MoesiState remoteFillState(Grant g) const;
    virtual RemoteWriteStep remoteWrite(cache::MoesiState s) const;
    /** Cache state a PACK answering RUPG/RUPD installs. */
    virtual cache::MoesiState remoteUpgradeResult(Grant g) const;
    virtual Opcode remoteEvict(cache::MoesiState s) const;
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

/** Names of allProtocols(), in the same order. */
std::vector<std::string> protocolNames();

/** Look a table up by name; nullptr if unknown. */
const ProtocolTable *protocolByName(const std::string &name);

} // namespace enzian::eci::proto

#endif // ENZIAN_ECI_PROTOCOL_TABLE_HH
