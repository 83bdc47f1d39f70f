/**
 * @file
 * ecicheck: exhaustive model checker for the simulator's ECI
 * coherence protocols.
 *
 * Explores every reachable state of one or more cache lines shared
 * between a home and a remote node, driving the abstract machine with
 * the same pluggable protocol table (eci::proto::ProtocolTable) the
 * event-driven engines execute, and checks SWMR, directory coverage,
 * dirty-data conservation, deadlock freedom, and quiescence liveness
 * (src/verif/).
 *
 * Run `ecicheck --help` for the options.
 *
 * Exit status 0 iff every explored configuration is clean (or, with
 * --mutation, nonzero when the bug is detected as it should be).
 * Usage errors — including unknown protocol or mutation names — exit
 * with status 2; there is no silent fallback to the default table.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "eci/protocol_table.hh"
#include "verif/explorer.hh"

using namespace enzian;

namespace {

struct JsonRun
{
    std::string config;
    verif::Report rep;
    std::uint64_t unreducedStates = 0; // 0 = no comparison ran
};

std::vector<std::string>
sortedWhats(const verif::Report &rep)
{
    std::vector<std::string> whats;
    for (const auto *vs :
         {&rep.violations, &rep.deadlocks, &rep.livenessViolations,
          &rep.dirtyTraps}) {
        for (const verif::Violation &v : *vs)
            whats.push_back(v.what);
    }
    std::sort(whats.begin(), whats.end());
    return whats;
}

int
runOne(const verif::Options &opt, const std::string &what,
       bool verbose, bool compare, bool json,
       std::vector<JsonRun> &jsonRuns)
{
    const verif::Report rep = verif::explore(opt);
    JsonRun jr;
    jr.config = what;
    jr.rep = rep;
    int rc = rep.clean() ? 0 : 1;

    if (!json) {
        std::printf("%-36s %8llu states %9llu transitions "
                    "max-in-flight %zu : %s\n",
                    what.c_str(),
                    static_cast<unsigned long long>(rep.states),
                    static_cast<unsigned long long>(rep.transitions),
                    rep.maxInFlight,
                    rep.clean() ? "clean" : "VIOLATIONS");
        if (!rep.clean() || verbose)
            std::printf("%s", rep.toString().c_str());
    }

    if (compare) {
        // Reference run with both reductions off; everything else
        // (protocol, mutation, ordering, lines) identical.
        verif::Options full = opt;
        full.symmetry = false;
        full.por = false;
        const verif::Report ref = verif::explore(full);
        jr.unreducedStates = ref.states;
        const double drop =
            ref.states
                ? 100.0 * (1.0 - static_cast<double>(rep.states) /
                                     static_cast<double>(ref.states))
                : 0.0;
        const bool match = sortedWhats(ref) == sortedWhats(rep);
        if (!json) {
            std::printf("%-36s %8llu states unreduced -> %llu "
                        "reduced (%.1f%% fewer), violation sets %s\n",
                        (what + " [reduction]").c_str(),
                        static_cast<unsigned long long>(ref.states),
                        static_cast<unsigned long long>(rep.states),
                        drop, match ? "identical" : "DIFFER");
        }
        if (!match)
            rc |= 1;
    }
    jsonRuns.push_back(std::move(jr));
    return rc;
}

void
printJson(const std::vector<JsonRun> &runs, const std::string &protocol)
{
    std::printf("[\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonRun &r = runs[i];
        std::printf(
            "  {\"config\": \"%s\", \"protocol\": \"%s\", "
            "\"states\": %llu, \"transitions\": %llu, "
            "\"maxInFlight\": %zu, \"clean\": %s, "
            "\"violations\": %zu, \"deadlocks\": %zu, "
            "\"livenessViolations\": %zu, \"dirtyTraps\": %zu",
            r.config.c_str(), protocol.c_str(),
            static_cast<unsigned long long>(r.rep.states),
            static_cast<unsigned long long>(r.rep.transitions),
            r.rep.maxInFlight, r.rep.clean() ? "true" : "false",
            r.rep.violations.size(), r.rep.deadlocks.size(),
            r.rep.livenessViolations.size(), r.rep.dirtyTraps.size());
        if (r.unreducedStates) {
            std::printf(", \"unreducedStates\": %llu",
                        static_cast<unsigned long long>(
                            r.unreducedStates));
        }
        std::printf("}%s\n", i + 1 < runs.size() ? "," : "");
    }
    std::printf("]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    verif::Options opt;
    bool unordered = false, compare = false, json = false;
    bool verbose = false, listProtocols = false, listMutations = false;
    std::string mode = "both", mutationName = "none";
    std::size_t maxStates = 0; // 0 = library default
    std::vector<std::string> mutations{"none"};
    for (verif::Mutation m : verif::allMutations)
        mutations.emplace_back(verif::toString(m));

    cli::Tool tool("ecicheck",
                   "Exhaustively model-check the ECI coherence protocol "
                   "tables.");
    tool.choice("--protocol", opt.protocol, eci::proto::protocolNames(),
                "protocol table to check (default moesi)")
        .flag("--list-protocols", listProtocols,
              "print the registered tables and exit")
        .flag("--unordered", unordered,
              "model reordering link policies too")
        .choice("--mode", mode, {"cached", "uncached", "both"},
                "configurations to check (default both)")
        .choice("--mutation", mutationName, mutations,
                "inject a seeded bug (must be caught)")
        .flag("--list-mutations", listMutations,
              "print the seeded bugs applicable to --protocol and exit")
        .value("--lines", opt.lines, "N",
               "explore N concurrent lines (default 1)")
        .flag("--symmetry", opt.symmetry,
              "canonicalize modulo line permutation")
        .flag("--por", opt.por, "partial-order-reduce pure completions")
        .value("--threads", opt.threads, "N",
               "parallel BFS workers (default 1)")
        .flag("--compare-reduction", compare,
              "also run unreduced; fail on any violation-set mismatch")
        .value("--max-states", maxStates, "N",
               "state-explosion abort threshold")
        .flag("--json", json, "machine-readable summary on stdout")
        .flag("--verbose", verbose,
              "print coverage and unreached states")
        .parse(argc, argv);

    const std::string &protocol = opt.protocol;
    if (listProtocols) {
        for (const std::string &p : eci::proto::protocolNames())
            std::printf("%s\n", p.c_str());
        return 0;
    }
    if (listMutations) {
        for (verif::Mutation m : verif::allMutations) {
            if (verif::mutationApplies(m, protocol))
                std::printf("%s\n", verif::toString(m));
        }
        return 0;
    }
    opt.mutation = verif::mutationFromString(mutationName)
                       .value_or(verif::Mutation::None);
    if (!verif::mutationApplies(opt.mutation, protocol))
        tool.usageError("mutation '%s' does not apply to protocol '%s'",
                        mutationName.c_str(), protocol.c_str());
    if (compare)
        opt.symmetry = opt.por = true;
    opt.orderedDelivery = !unordered;
    if (maxStates)
        opt.maxStates = maxStates;

    int rc = 0;
    std::vector<JsonRun> jsonRuns;
    for (int cached = 1; cached >= 0; --cached) {
        if (cached && mode == "uncached")
            continue;
        if (!cached && mode == "cached")
            continue;
        opt.uncachedRemote = !cached;
        std::string what =
            protocol + " " + (cached ? "cached" : "uncached") +
            (unordered ? " unordered" : " ordered");
        if (opt.lines > 1)
            what += " lines=" + std::to_string(opt.lines);
        if (opt.symmetry || opt.por) {
            what += std::string(" [") + (opt.symmetry ? "sym" : "") +
                    (opt.symmetry && opt.por ? "+" : "") +
                    (opt.por ? "por" : "") + "]";
        }
        if (opt.mutation != verif::Mutation::None)
            what += std::string(" +") + verif::toString(opt.mutation);
        rc |= runOne(opt, what, verbose, compare, json, jsonRuns);
    }
    if (json)
        printJson(jsonRuns, protocol);
    return rc;
}
