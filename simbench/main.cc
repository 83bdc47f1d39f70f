/**
 * @file
 * Simulator-speed benchmark: the main program.
 *
 *   simbench --workload eci_stream|serving_net|rack_kv --seed N
 *            --seconds S --trace 0|1
 *            [--threads T] [--scale X] [--rounds N] [--trace-out FILE]
 *            [--git SHA]
 *
 * Repeats rounds of one workload until S host seconds have passed (or
 * exactly N rounds), checks every round's outputs and that all rounds
 * simulated the same thing, and prints one JSON object as the last
 * line. With --trace 0 it reports the end-to-end metrics (medians over
 * rounds); with --trace 1 it alternates untraced and traced rounds and
 * reports the per-layer metrics, taken from the traced rounds, plus
 * the tracing overhead. Exit status is 1 when any check fails.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"
#include "tracer.hh"

namespace {

using namespace simbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric; a workload that does not exercise a
 *  layer reports 0 for it. */
const MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_op", "ratio"},
    {"sim.dispatch_ratio", "ratio"},
    {"sim.run_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.pending_max", "count"},
    {"sim.slot_pool", "count"},
    {"sim.barrier_s", "s"},
    {"sim.barrier_share", "ratio"},
    {"sim.epochs", "count"},
    {"sim.events_per_epoch", "ratio"},
    {"sim.cross_msgs", "count"},
    {"sim.domain_stall_share", "ratio"},
    {"sim.domain_event_imbalance", "ratio"},
    {"sim.end_us", "us"},
    {"eci.msgs", "count"},
    {"eci.msgs_per_op", "ratio"},
    {"eci.bytes", "B"},
    {"eci.retry_ratio", "ratio"},
    {"eci.home_requests", "count"},
    {"eci.rtt_ns_mean", "ns"},
    {"cache.l2_hit_ratio", "ratio"},
    {"cache.l2_evictions", "count"},
    {"mem.dram_requests", "count"},
    {"mem.dram_bytes", "B"},
    {"net.switch_bytes", "B"},
    {"net.rdma_retries", "count"},
    {"load.offered", "count"},
    {"load.completed", "count"},
    {"load.tcp_lo.p50_us", "us"},
    {"load.tcp_lo.p99_us", "us"},
    {"load.tcp_hi.p50_us", "us"},
    {"load.tcp_hi.p99_us", "us"},
    {"load.rdma_lo.p50_us", "us"},
    {"load.rdma_lo.p99_us", "us"},
    {"load.rdma_hi.p50_us", "us"},
    {"load.rdma_hi.p99_us", "us"},
    {"cluster.kv_gets", "count"},
    {"cluster.kv_puts", "count"},
    {"cluster.kv_replica_acks", "count"},
    {"cluster.kv_local_read_ratio", "ratio"},
    {"cluster.kv_get_p99_us", "us"},
    {"cluster.kv_put_p99_us", "us"},
    {"platform.build_s", "s"},
    {"platform.wire_s", "s"},
    {"obs.stats", "count"},
    {"self.platform_s", "s"},
    {"self.mem_s", "s"},
    {"self.eci_s", "s"},
    {"self.load_s", "s"},
    {"self.cluster_s", "s"},
    {"self.sim_s", "s"},
    {"self.obs_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
    {"ops_failed_frac", "ratio"},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::uint32_t threads = 1;
    double scale = 1.0;
    std::uint32_t rounds = 0;
    std::string trace_out;
    std::string git = "none";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload "
                 "eci_stream|serving_net|rack_kv --seed N --seconds S "
                 "--trace 0|1 [--threads T] [--scale X] [--rounds N] "
                 "[--trace-out FILE] [--git SHA]\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = std::strtoul(v.c_str(), &end, 10) != 0;
        } else if (a == "--threads") {
            o.threads = static_cast<std::uint32_t>(
                std::strtoul(v.c_str(), &end, 10));
        } else if (a == "--scale") {
            o.scale = std::strtod(v.c_str(), &end);
        } else if (a == "--rounds") {
            o.rounds = static_cast<std::uint32_t>(
                std::strtoul(v.c_str(), &end, 10));
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else if (a == "--git") {
            o.git = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end && *end != '\0')
            usage(("bad value for " + a).c_str());
    }
    if (o.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    if (!(o.seconds > 0) || !(o.scale > 0) || o.threads == 0 ||
        o.threads > 4)
        usage("--seconds and --scale must be positive, --threads 1..4");
    return o;
}

/** Fill the derived per-layer values of a finished round. */
void
derive(Round &r)
{
    auto &L = r.layer;
    const double ops = static_cast<double>(r.attempted);
    const double events = L["sim.events"];
    L["sim.events_per_op"] = events / ops;
    L["sim.dispatch_ratio"] = events / L["sim.scheduled"];
    L["sim.run_s"] = r.run_s;
    L["sim.ns_per_event"] = r.run_s * 1e9 / events;
    L["sim.events_per_epoch"] =
        L["sim.epochs"] > 0 ? events / L["sim.epochs"] : 0.0;
    L["sim.barrier_share"] = L["sim.barrier_s"] / r.run_s;
    L["sim.end_us"] = enzian::units::toMicros(r.end_tick);
    L["eci.msgs_per_op"] = L["eci.msgs"] / ops;
    L["platform.build_s"] = r.build_s;
    L["platform.wire_s"] = r.wire_s;
    L["ops_failed_frac"] = static_cast<double>(r.failed) / ops;
}

double
opsPerSecond(const Round &r)
{
    return static_cast<double>(r.attempted - r.failed) / r.run_s;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printMetric(bool &first, const char *name, double value, const char *unit)
{
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name, value, unit);
    first = false;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    Round (*workload)(const RoundConfig &) = nullptr;
    if (o.workload == "eci_stream")
        workload = runEciStream;
    else if (o.workload == "serving_net")
        workload = runServingNet;
    else if (o.workload == "rack_kv")
        workload = runRackKv;
    else
        usage(("unknown workload " + o.workload).c_str());

    // Host and build stamp: output only, so numbers from different
    // hosts or builds never compare silently.
    double load[1] = {0.0};
    if (getloadavg(load, 1) != 1)
        load[0] = -1.0;
    std::printf("# host nproc=%u compiler=\"%s\" build=%s git=%s "
                "loadavg1=%.2f\n",
                std::thread::hardware_concurrency(), SIMBENCH_COMPILER,
                SIMBENCH_BUILD_TYPE, o.git.c_str(), load[0]);
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d threads=%u "
                "scale=%g\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.threads, o.scale);

    const std::uint32_t min_rounds = o.trace ? 4 : 3;
    std::vector<Round> rounds;
    std::vector<bool> traced;
    const auto start = Clock::now();
    for (std::uint32_t i = 0;; ++i) {
        const bool tr = o.trace && i % 2 == 1;
        HostTracer::resetTotals();
        HostTracer::setEnabled(tr);
        RoundConfig rc;
        rc.seed = o.seed;
        rc.traced = tr;
        rc.threads = o.threads;
        rc.scale = o.scale;
        Round r = workload(rc);
        HostTracer::setEnabled(false);
        derive(r);
        if (tr) {
            for (const auto &[layer, s] : HostTracer::selfSeconds())
                r.layer["self." + layer + "_s"] = s;
            r.layer["trace.spans"] =
                static_cast<double>(HostTracer::spanCount());
        }
        std::printf("# round %u traced=%d setup_s=%.6f run_s=%.6f "
                    "ops=%llu failed=%llu sim_ops_per_s=%.1f\n",
                    i, tr ? 1 : 0, r.setup_s(), r.run_s,
                    static_cast<unsigned long long>(r.attempted),
                    static_cast<unsigned long long>(r.failed),
                    opsPerSecond(r));
        std::fflush(stdout);
        rounds.push_back(std::move(r));
        traced.push_back(tr);
        const bool done =
            o.rounds ? rounds.size() >= o.rounds
                     : secondsSince(start) >= o.seconds &&
                           rounds.size() >= min_rounds;
        if (done)
            break;
    }

    // Checks: every operation completed with the right data, and every
    // round of this seed simulated exactly the same thing.
    std::uint64_t attempted = 0, failed = 0;
    bool same = true;
    for (const Round &r : rounds) {
        attempted += r.attempted;
        failed += r.failed;
        same = same && r.end_tick == rounds[0].end_tick &&
               r.events == rounds[0].events &&
               r.registry_digest == rounds[0].registry_digest;
    }
    const bool correct = failed == 0 && same;
    std::printf("# fingerprint end_us=%.6f events=%llu registry=%016llx "
                "identical_rounds=%d\n",
                enzian::units::toMicros(rounds[0].end_tick),
                static_cast<unsigned long long>(rounds[0].events),
                static_cast<unsigned long long>(rounds[0].registry_digest),
                same ? 1 : 0);
    std::printf("# ops attempted=%llu failed=%llu ops_failed_frac=%.6g\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<double>(failed) /
                    static_cast<double>(attempted));

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    if (!o.trace) {
        std::vector<double> ops, setup;
        for (const Round &r : rounds) {
            ops.push_back(opsPerSecond(r));
            setup.push_back(r.setup_s());
        }
        printMetric(first, "sim_ops_per_s", median(ops), "1/s");
        printMetric(first, "setup_s", median(setup), "s");
        printMetric(first, "peak_rss_mib", peakRssMib(), "MiB");
    } else {
        // Overhead: each traced round against the untraced round just
        // before it, which ran under the same host load.
        for (std::size_t i = 1; i < rounds.size(); i += 2)
            rounds[i].layer["trace.overhead_frac"] =
                opsPerSecond(rounds[i - 1]) / opsPerSecond(rounds[i]) - 1.0;
        for (const MetricDef &m : kPerLayer) {
            std::vector<double> v;
            for (std::size_t i = 0; i < rounds.size(); ++i) {
                if (!traced[i])
                    continue;
                const auto it = rounds[i].layer.find(m.name);
                v.push_back(it != rounds[i].layer.end() ? it->second : 0.0);
            }
            printMetric(first, m.name, median(v), m.unit);
        }
        if (!o.trace_out.empty()) {
            std::ofstream f(o.trace_out, std::ios::trunc);
            HostTracer::writeChromeJson(f);
            if (!f.good()) {
                std::fprintf(stderr, "simbench: cannot write %s\n",
                             o.trace_out.c_str());
                return 1;
            }
        }
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
