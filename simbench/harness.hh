/**
 * @file
 * Shared types of the simulator-speed benchmark.
 *
 * A run repeats one workload in rounds until the requested host time
 * has passed. Every round builds a fresh simulation from the seed,
 * drives it to completion, checks the outputs and reads the per-layer
 * counts, so rounds of one seed are identical simulations and their
 * host times are samples of one distribution.
 */

#ifndef SIMBENCH_HARNESS_HH
#define SIMBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/units.hh"
#include "obs/registry.hh"

namespace enzian {
class EventQueue;
namespace sim {
class DomainScheduler;
} // namespace sim
} // namespace enzian

namespace simbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Inputs of one round. */
struct RoundConfig
{
    std::uint64_t seed = 1;
    /** Record host-time spans and per-slice queue depths. */
    bool traced = false;
    /** rack_kv scheduler threads. */
    std::uint32_t threads = 1;
    /** Scale the operation count (tests shorten runs with it). */
    double scale = 1.0;
};

/** What one round measured. */
struct Round
{
    // Host time (seconds).
    double build_s = 0.0;  ///< machine / rack constructors
    double wire_s = 0.0;   ///< service wiring and pre-fill
    double run_s = 0.0;    ///< first event to drain
    double setup_s() const { return build_s + wire_s; }

    // Operations.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< not completed or wrong data

    // Simulation fingerprint.
    enzian::Tick end_tick = 0;
    std::uint64_t events = 0;
    std::uint64_t registry_digest = 0;

    /** Per-layer counts and model outputs, by metric name. */
    std::map<std::string, double> layer;
};

/**
 * Fill @p bytes (a multiple of 8) at @p out with the seeded pattern of
 * @p base: word w is a mix of (base + w) ^ @p salt. Pre-filled memory
 * and written values use it, so reads can be checked in any order.
 */
void fillPattern(std::uint64_t base, std::uint64_t salt, std::uint8_t *out,
                 std::size_t bytes);

/**
 * Export the live registry as JSON and fold it into the round: the
 * digest extends round.registry_digest, and the returned snapshot
 * feeds the per-layer counts. Call while the simulated objects are
 * still alive.
 */
enzian::obs::Snapshot exportRegistry(Round &round);

/**
 * Add the eci, cache, mem and net counts of @p snap to the round
 * (sums, so several machines in one round add up).
 */
void recordLayers(Round &round, const enzian::obs::Snapshot &snap);

/** Record queue counters of one sequential event queue. */
void recordQueue(Round &round, const enzian::EventQueue &eq);

/** Record queue and epoch counters of a domain scheduler's run. */
void recordScheduler(Round &round, enzian::sim::DomainScheduler &sched,
                     const enzian::obs::Snapshot &snap);

/** Nearest-rank quantile @p q of @p v (sorted in place). */
double quantile(std::vector<double> &v, double q);

/** Median of @p v. */
double median(std::vector<double> v);

/** The three workloads; each runs one round. */
Round runEciStream(const RoundConfig &cfg);
Round runServingNet(const RoundConfig &cfg);
Round runRackKv(const RoundConfig &cfg);

} // namespace simbench

#endif // SIMBENCH_HARNESS_HH
