/**
 * @file
 * Global hierarchical statistics registry.
 *
 * Every SimObject auto-registers its StatGroup here on construction
 * (and removes it on destruction), giving one global view of the whole
 * machine's counters without any per-component wiring — the role
 * MGSim's uniform counter tree and gem5's stats dump play. On top of
 * the live view the registry provides point-in-time snapshots (a flat
 * map of dotted stat names to values), snapshot diffing for interval
 * measurements, group-wide reset, and machine-readable exports:
 * hierarchical JSON and Prometheus text exposition.
 *
 * Names are hierarchical by convention ("enzian.eci.link0.messages");
 * the JSON export nests on the dots. Two components with the same name
 * (e.g. two independent bench machines both called "enzian") may
 * coexist; flattened snapshots resolve such collisions last-wins.
 */

#ifndef ENZIAN_OBS_REGISTRY_HH
#define ENZIAN_OBS_REGISTRY_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "base/stats.hh"

namespace enzian::obs {

/** Flattened point-in-time view: dotted stat name -> value. */
using Snapshot = std::map<std::string, double>;

/**
 * Per-stat difference @p newer - @p older. Keys only in @p newer are
 * kept as-is (a component created between the snapshots); keys only
 * in @p older are dropped (the component is gone, there is no
 * meaningful delta).
 */
Snapshot diff(const Snapshot &newer, const Snapshot &older);

/** The registry of every live StatGroup. */
class Registry
{
  public:
    Registry() = default;

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide registry SimObjects register with. */
    static Registry &global();

    /** Register @p g; the group must outlive its registration. */
    void add(StatGroup *g);

    /** Remove @p g (no-op if absent). */
    void remove(StatGroup *g);

    /** Number of registered groups. */
    std::size_t groupCount() const { return groups_.size(); }

    /** Registered groups, sorted by name (then registration order). */
    std::vector<const StatGroup *> groups() const;

    /** Flatten every registered stat into a snapshot. */
    Snapshot snapshot() const;

    /** Reset every statistic in every registered group. */
    void resetAll();

    /**
     * Hierarchical JSON export of @p snap: dotted names become nested
     * objects, so "a.b.c": 1 renders as {"a":{"b":{"c":1}}}.
     */
    static void exportJson(const Snapshot &snap, std::ostream &os);

    /** JSON export of the current live values. */
    void exportJson(std::ostream &os) const;

    /**
     * Prometheus text exposition of the current live values: names
     * sanitized to [a-zA-Z0-9_] with an "enzian_" prefix, one # TYPE
     * line per metric. Counters are typed counter and gauges gauge;
     * accumulators and histograms are typed summary and carry
     * <name>_count and <name>_sum, histograms also the 0.5/0.9/0.99
     * quantile lines.
     */
    void exportPrometheus(std::ostream &os) const;

    /** Map a dotted stat name to its Prometheus metric name. */
    static std::string prometheusName(const std::string &dotted);

  private:
    std::vector<StatGroup *> groups_;
};

} // namespace enzian::obs

#endif // ENZIAN_OBS_REGISTRY_HH
