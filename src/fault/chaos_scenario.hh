/**
 * @file
 * Reusable chaos scenario: a small Enzian machine under a FaultPlan.
 *
 * Drives randomized coherent traffic (cached remote writes, home-local
 * writes that force invalidations, uncached remote stores) plus
 * optional TCP and RDMA side traffic against a machine with a
 * FaultInjector armed and the coherence invariant monitor attached.
 * After the simulation drains, every acked write is read back through
 * the line's home agent and compared byte-for-byte, the caches are
 * flushed, and the monitor's machine-wide invariants are checked.
 *
 * The machine always runs as CPU and FPGA timing domains under the
 * domain scheduler, so the result — registry JSON included — is
 * bit-identical for every thread count. The traffic driver and all
 * bookkeeping live on the CPU domain; FPGA-side pool ops and
 * verification reads hop into the FPGA domain through the
 * scheduler's channel pair and their completions hop back. The
 * switch, both TCP stacks and the RDMA pair live on the FPGA domain,
 * where Enzian's 100G ports are.
 *
 * Shared by the chaos soak test (tests/test_fault_chaos.cc) and the
 * enzchaos CLI.
 */

#ifndef ENZIAN_FAULT_CHAOS_SCENARIO_HH
#define ENZIAN_FAULT_CHAOS_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"

namespace enzian::fault {

/** Scenario knobs. */
struct ChaosConfig
{
    /** Traffic stream seed (independent of the plan seed). */
    std::uint64_t seed = 1;
    /** Coherent line operations to issue. */
    std::uint32_t ops = 400;
    /** Lines per pool (three pools: cached, snooped, uncached). */
    std::uint32_t lines = 32;
    /** Run TCP side traffic (with loss faults if planned). */
    bool with_net = true;
    /** Run RDMA side traffic (with drop faults if planned). */
    bool with_rdma = true;
    /** Attach the BMC for rail glitches (slow: ~100 ms sim time). */
    bool with_bmc = false;
    /** Scheduler threads (0 runs like 1: the domains in sequence). */
    std::uint32_t threads = 0;
    /**
     * Coherence protocol the machine under chaos runs (any name from
     * eci::proto::allProtocols()); unknown names are fatal.
     */
    std::string protocol = "moesi";
};

/** Scenario outcome. */
struct ChaosResult
{
    bool ok = false;
    /** Invariant violations + data-integrity mismatches. */
    std::vector<std::string> violations;
    std::uint64_t opsIssued = 0;
    std::uint64_t opsCompleted = 0;
    std::uint64_t faultsInjected = 0;
    /** The injector's per-kind summary. */
    std::string report;
    /**
     * Full obs::Registry JSON captured while the machine was alive;
     * the determinism regression compares two runs byte-for-byte.
     */
    std::string registryJson;
};

/** Run one chaos scenario to completion. */
ChaosResult runChaos(const FaultPlan &plan, const ChaosConfig &cfg);

} // namespace enzian::fault

#endif // ENZIAN_FAULT_CHAOS_SCENARIO_HH
