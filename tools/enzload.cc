/**
 * @file
 * enzload: open-loop load generation and capacity planning for the
 * simulated Enzian services.
 *
 * Drives one service (GBDT inference, RDMA reads, or TCP echo)
 * through the serving testbed at a single offered rate or across a
 * saturation sweep, and reports the knee: the highest offered load
 * whose p99 (or configured quantile) still meets the SLO. With a
 * fault plan the sweep runs twice — clean and faulted — and reports
 * the capacity the faults cost.
 *
 * Run `enzload --help` for the options.
 *
 * Default is an auto sweep (geometric ladder from 10% to 150% of the
 * testbed's estimated capacity). --rate runs one operating point
 * instead. ENZIAN_THREADS is honored like --threads.
 *
 * Exit status: 0 if a knee was found (or --rate met the SLO), 1 if no
 * operating point met the SLO or an output could not be written, 2 on
 * usage errors.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "eci/protocol_table.hh"
#include "fault/fault_plan.hh"
#include "load/testbed.hh"
#include "obs/json.hh"
#include "obs/span_tracer.hh"

using namespace enzian;

namespace {

/** Parse a LO:HI:N ladder spec. */
std::vector<double>
parseLadder(const cli::Tool &tool, const std::string &spec)
{
    double lo = 0, hi = 0;
    unsigned long n = 0;
    char trailing = 0;
    if (std::sscanf(spec.c_str(), "%lf:%lf:%lu%c", &lo, &hi, &n,
                    &trailing) != 3 ||
        lo <= 0 || hi < lo || n < 1)
        tool.usageError("bad sweep spec '%s' (want LO:HI:N)",
                        spec.c_str());
    return load::geometricRates(lo, hi, n);
}

void
printPoints(const load::SweepResult &r, const char *label)
{
    std::printf("\n%-12s %10s %10s %9s %9s %9s %9s %7s\n", label,
                "offered", "achieved", "p50us", "p99us", "p999us",
                "burn", "slo");
    for (const auto &p : r.points) {
        std::printf("%-12s %10.0f %10.0f %9.1f %9.1f %9.1f %9.4f "
                    "%7s\n",
                    "", p.offered_rps, p.achieved_rps, p.p50_us,
                    p.p99_us, p.p999_us, p.burn_rate,
                    p.slo_ok ? "ok" : "MISS");
    }
    if (r.knee >= 0)
        std::printf("%-12s knee at point %d: %.0f req/s\n", "",
                    r.knee, r.knee_rps);
    else
        std::printf("%-12s no operating point met the SLO\n", "");
}

void
jsonPoints(std::ostream &os, const load::SweepResult &r,
           const char *indent)
{
    os << "[";
    bool first = true;
    for (const auto &p : r.points) {
        os << (first ? "\n" : ",\n") << indent << "  {"
           << "\"offered_rps\": " << obs::json::number(p.offered_rps)
           << ", \"offered\": " << p.offered
           << ", \"completed\": " << p.completed
           << ", \"achieved_rps\": "
           << obs::json::number(p.achieved_rps)
           << ", \"p50_us\": " << obs::json::number(p.p50_us)
           << ", \"p99_us\": " << obs::json::number(p.p99_us)
           << ", \"p999_us\": " << obs::json::number(p.p999_us)
           << ", \"mean_us\": " << obs::json::number(p.mean_us)
           << ", \"max_us\": " << obs::json::number(p.max_us)
           << ", \"burn_rate\": " << obs::json::number(p.burn_rate)
           << ", \"slo_ok\": " << (p.slo_ok ? "true" : "false")
           << "}";
        first = false;
    }
    os << "\n" << indent << "]";
}

} // namespace

int
main(int argc, char **argv)
{
    load::SweepConfig cfg;
    std::string service = "gbdt", process = "poisson", plan_file;
    std::optional<std::string> sweep, json, csv, trace;
    std::optional<std::uint64_t> seed, bytes;
    std::optional<double> duration_ms, window_ms;
    double rate = 0.0, users_rps = 0.0;
    std::uint64_t trace_requests = 0;
    cfg.testbed.threads = cli::envThreads();
    cli::Tool tool("enzload",
                   "Open-loop load generation and capacity planning: "
                   "sweep offered load and\nreport the knee (exit 1 "
                   "when no operating point meets the SLO).");
    tool.choice("--service", service, {"gbdt", "rdma", "tcp"},
                "service to drive (default gbdt)")
        .optionalValue("--sweep", sweep, "LO:HI:N",
                       "saturation sweep (default: auto ladder)")
        .value("--rate", rate, "R", "run one offered rate (req/s)")
        .choice("--process", process, {"poisson", "mmpp", "diurnal"},
                "arrival process (default poisson)")
        .value("--duration-ms", duration_ms, "X",
               "run length per point (default 50)")
        .value("--window-ms", window_ms, "X", "SLO window (default 5)")
        .value("--slo-us", cfg.slo_latency_us, "X",
               "latency SLO (default 1000)")
        .value("--slo-quantile", cfg.slo_quantile, "Q",
               "SLO quantile (default 0.99)")
        .value("--clients", cfg.clients, "N", "client population")
        .value("--seed", seed, "N", "testbed and arrival seed (default 1)")
        .value("--points", cfg.auto_points, "N",
               "auto-ladder points (default 8)")
        .value("--batch", cfg.testbed.gbdt_batch, "N", "GBDT batch size")
        .value("--engines", cfg.testbed.gbdt_engines, "N",
               "GBDT engines")
        .value("--bytes", bytes, "N", "RDMA read / TCP echo size")
        .choice("--path", cfg.testbed.rdma_path, {"dram", "eci-host"},
                "RDMA target memory (default dram)")
        .value("--flows", cfg.testbed.tcp_flows, "N", "TCP flows")
        .value("--plan", plan_file, "FILE",
               "also sweep under this fault plan")
        .choice("--protocol", cfg.testbed.protocol,
                eci::proto::protocolNames(),
                "coherence protocol (default moesi)")
        .value("--threads", cfg.testbed.threads, "N",
               "parallel timing domains (default ENZIAN_THREADS)")
        .value("--users-rps", users_rps, "R",
               "per-user rate: report supported users at the knee")
        .optionalValue("--trace", trace, "FILE",
                       "per-request Perfetto trace of the knee point")
        .value("--trace-requests", trace_requests, "N",
               "requests to trace (default 32)")
        .optionalValue("--json", json, "FILE", "sweep summary JSON")
        .optionalValue("--csv", csv, "FILE", "sweep points CSV")
        .parse(argc, argv);

    cfg.testbed.service = load::serviceKindFromString(service);
    cfg.arrival.kind = load::arrivalKindFromString(process);
    if (duration_ms)
        cfg.duration = units::ms(*duration_ms);
    if (window_ms)
        cfg.window = units::ms(*window_ms);
    if (seed)
        cfg.testbed.seed = cfg.arrival.seed = *seed;
    if (bytes)
        cfg.testbed.rdma_bytes = cfg.testbed.tcp_bytes = *bytes;
    if (sweep && !sweep->empty())
        cfg.rates = parseLadder(tool, *sweep);
    std::optional<fault::FaultPlan> plan;
    if (!plan_file.empty()) {
        std::string err;
        plan = fault::FaultPlan::parseFile(plan_file, err);
        if (!plan)
            tool.usageError("%s", err.c_str());
    }
    if (rate > 0.0 && sweep)
        tool.usageError("--rate and --sweep are exclusive");
    if (rate > 0.0)
        cfg.rates = {rate};

    const char *svc = load::toString(cfg.testbed.service);
    std::printf("enzload: %s service, %s arrivals, SLO p%g <= %.0f us",
                svc, load::toString(cfg.arrival.kind),
                cfg.slo_quantile * 100.0, cfg.slo_latency_us);
    if (plan)
        std::printf(", %zu faults planned", plan->faults.size());
    std::printf("\n");

    const load::SweepResult base = load::runSweep(cfg);
    printPoints(base, "clean");

    std::optional<load::SweepResult> faulted;
    if (plan) {
        load::SweepConfig fcfg = cfg;
        // Reuse the clean ladder so the two runs share rates.
        if (fcfg.rates.empty())
            for (const auto &p : base.points)
                fcfg.rates.push_back(p.offered_rps);
        fcfg.testbed.plan = &*plan;
        faulted = load::runSweep(fcfg);
        printPoints(*faulted, "faulted");
        if (base.knee >= 0 && faulted->knee >= 0)
            std::printf("\nfault cost: knee %.0f -> %.0f req/s "
                        "(%.1f%% capacity lost)\n",
                        base.knee_rps, faulted->knee_rps,
                        100.0 * (1.0 - faulted->knee_rps /
                                           base.knee_rps));
    }

    if (users_rps > 0.0 && base.knee >= 0)
        std::printf("supported users at %.2f req/s each: %.0f\n",
                    users_rps, base.knee_rps / users_rps);

    // Per-request tracing: rerun the knee point (or the lightest
    // point if nothing met the SLO) with the tracer on.
    bool wrote = true;
    if (trace && !base.points.empty()) {
        obs::SpanTracer &tracer = obs::SpanTracer::global();
        tracer.setEnabled(true);
        load::runPoint(cfg, base.points[base.knee >= 0 ? base.knee : 0]
                                .offered_rps,
                       trace_requests > 0 ? trace_requests : 32);
        tracer.setEnabled(false);
        wrote &= tool.writeTo(*trace, [&](std::ostream &os) {
            tracer.writeChromeJson(os);
        });
    }

    if (json)
        wrote &= tool.writeTo(*json, [&](std::ostream &os) {
            os << "{\n  \"service\": " << obs::json::quote(svc)
               << ",\n  \"process\": "
               << obs::json::quote(
                      load::toString(cfg.arrival.kind))
               << ",\n  \"protocol\": "
               << obs::json::quote(cfg.testbed.protocol)
               << ",\n  \"slo_us\": "
               << obs::json::number(cfg.slo_latency_us)
               << ",\n  \"slo_quantile\": "
               << obs::json::number(cfg.slo_quantile)
               << ",\n  \"duration_ms\": "
               << obs::json::number(units::toMicros(cfg.duration) /
                                    1000.0)
               << ",\n  \"points\": ";
            jsonPoints(os, base, "  ");
            os << ",\n  \"knee\": " << base.knee
               << ",\n  \"knee_rps\": "
               << obs::json::number(base.knee_rps);
            if (users_rps > 0.0)
                os << ",\n  \"knee_users\": "
                   << obs::json::number(
                          base.knee >= 0
                              ? base.knee_rps / users_rps
                              : 0.0);
            if (faulted) {
                os << ",\n  \"faulted_points\": ";
                jsonPoints(os, *faulted, "  ");
                os << ",\n  \"faulted_knee\": " << faulted->knee
                   << ",\n  \"faulted_knee_rps\": "
                   << obs::json::number(faulted->knee_rps)
                   << ",\n  \"knee_delta_rps\": "
                   << obs::json::number(base.knee_rps -
                                        faulted->knee_rps);
            }
            os << "\n}\n";
        });

    if (csv)
        wrote &= tool.writeTo(*csv, [&](std::ostream &os) {
            os << "run,offered_rps,offered,completed,achieved_rps,"
                  "p50_us,p99_us,p999_us,mean_us,max_us,burn_rate,"
                  "slo_ok\n";
            auto rows = [&](const load::SweepResult &r,
                            const char *tag) {
                for (const auto &p : r.points) {
                    char line[320];
                    std::snprintf(
                        line, sizeof(line),
                        "%s,%.3f,%llu,%llu,%.3f,%.3f,%.3f,%.3f,"
                        "%.3f,%.3f,%.4f,%d\n",
                        tag, p.offered_rps,
                        static_cast<unsigned long long>(p.offered),
                        static_cast<unsigned long long>(p.completed),
                        p.achieved_rps, p.p50_us, p.p99_us,
                        p.p999_us, p.mean_us, p.max_us, p.burn_rate,
                        p.slo_ok ? 1 : 0);
                    os << line;
                }
            };
            rows(base, "clean");
            if (faulted)
                rows(*faulted, "faulted");
        });

    return base.knee >= 0 && wrote ? 0 : cli::exitFailure;
}
