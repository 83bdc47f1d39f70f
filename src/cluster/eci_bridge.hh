/**
 * @file
 * Cross-machine coherence bridge (paper section 6).
 *
 * "...accessible either through RDMA, or on Enzian by extending the
 * cache coherency protocol via a 'bridge' implemented on the FPGA" -
 * and section 4.1: ECI "in principle allows ... cache coherence to be
 * extended across machines".
 *
 * The bridge maps a window of machine A's FPGA-homed physical address
 * space onto memory owned by machine B. A's CPU caches those lines
 * through its ordinary ECI path (the L2 really holds them in
 * MOESI states; A's FPGA home agent tracks it in its directory); when
 * a refill misses, A's FPGA fetches the line over 100 GbE from B's
 * bridge target. The target is FPGA logic on B: it reaches B's memory
 * through B's FPGA remote agent over B's own ECI link (uncached RLDI /
 * RSTT), so a line dirty in B's L2 is snooped by B's CPU home agent
 * and forwarded across the wire. Each side runs on its own node's
 * FPGA timing domain.
 *
 * Writebacks travel the same path and are non-posted (the ECI ack
 * carries the remote durability point), so read-after-write across
 * the bridge is safe. The model assumes a single importing machine
 * per window (B does not invalidate A's cached copies when B itself
 * writes; that direction is the open research question the paper
 * leaves to future work, and tests pin the documented behaviour).
 */

#ifndef ENZIAN_CLUSTER_ECI_BRIDGE_HH
#define ENZIAN_CLUSTER_ECI_BRIDGE_HH

#include <unordered_map>
#include <vector>

#include "base/wire_ledger.hh"
#include "eci/home_agent.hh"
#include "net/switch.hh"
#include "platform/enzian_machine.hh"

namespace enzian::cluster {

/** Serving side of the bridge, on the exporting machine (B). */
class EciBridgeTarget : public SimObject
{
  public:
    /** Target configuration. */
    struct Config
    {
        std::uint32_t port = 0;
        /** Base of the exported region in B's physical space. */
        Addr export_base = 0;
        /** Request handling cost in the fabric (ns). */
        double proc_ns = 120.0;
    };

    /**
     * @param node the exporting machine B; the target owns its port
     *        cfg.port and reaches the exported region (B's CPU-homed
     *        memory) through B's FPGA remote agent
     */
    EciBridgeTarget(std::string name, platform::EnzianMachine &node,
                    net::Switch &sw, const Config &cfg);

    std::uint64_t linesServed() const { return served_.value(); }

    const Config &config() const { return cfg_; }

    /**
     * @internal wire record shared with the source side. The op and
     * result ledgers are owned by this target instance — two bridges
     * in one process (or consecutive tests) can no longer collide ids
     * or leak each other's state, and the ledgers are thread-safe
     * under DomainScheduler.
     */
    struct WireOp
    {
        bool write = false;
        Addr line = 0; // window-relative
        std::uint32_t srcPort = 0;
        std::vector<std::uint8_t> data; // write payload / read result
    };

    /** Register an op from a source; the id rides the frame tag. */
    std::uint64_t registerOp(WireOp op) { return ops_.put(std::move(op)); }
    /** Fetch (and drop) a read result by id ({} if absent). */
    std::vector<std::uint8_t> takeResult(std::uint64_t id);

    /** Ops currently in flight (test introspection). */
    std::size_t opsInFlight() const { return ops_.size(); }

  private:
    void onFrame(Tick when, std::uint64_t payload, std::uint64_t user);

    net::Switch &sw_;
    eci::RemoteAgent &remote_;
    Config cfg_;
    Counter served_;
    WireLedger<WireOp> ops_;
    WireLedger<std::vector<std::uint8_t>> results_;
};

/**
 * Importing side: a LineSource for machine A's FPGA home agent that
 * forwards a window of A's address space to a bridge target;
 * everything else passes through to A's own DRAM.
 */
class EciBridgeSource : public SimObject, public eci::LineSource
{
  public:
    /** Source configuration. */
    struct Config
    {
        std::uint32_t port = 0;
        /** Bridged window in A's physical space (FPGA-homed). */
        Addr window_base = 0;
        std::uint64_t window_size = 0;
    };

    /**
     * @param node the importing machine A, owning port cfg.port
     * @param fallback source for addresses outside the window
     *        (normally the machine's DRAM source)
     * @param target the exporting machine's bridge target; owns the
     *        wire ledgers and determines the destination port
     */
    EciBridgeSource(std::string name, platform::EnzianMachine &node,
                    net::Switch &sw, eci::LineSource &fallback,
                    EciBridgeTarget &target, const Config &cfg);

    void readLine(Tick when, Addr addr, std::uint8_t *out,
                  Done done) override;
    void writeLine(Tick when, Addr addr, const std::uint8_t *data,
                   Done done) override;
    /** Bridged writes are acknowledged at remote durability. */
    bool posted() const override { return false; }

    std::uint64_t linesBridged() const { return bridged_.value(); }

  private:
    bool inWindow(Addr addr) const
    {
        return addr >= cfg_.window_base &&
               addr < cfg_.window_base + cfg_.window_size;
    }

    void onFrame(Tick when, std::uint64_t payload, std::uint64_t user);

    struct Pending
    {
        std::uint8_t *out = nullptr;
        Done done;
    };

    net::Switch &sw_;
    eci::LineSource &fallback_;
    EciBridgeTarget &target_;
    Config cfg_;
    std::unordered_map<std::uint64_t, Pending> pending_;
    Counter bridged_;
};

} // namespace enzian::cluster

#endif // ENZIAN_CLUSTER_ECI_BRIDGE_HH
