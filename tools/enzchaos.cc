/**
 * @file
 * enzchaos: run a fault-injection chaos scenario from the command
 * line and report what was injected and what recovered.
 *
 * Loads a FaultPlan from a text spec (or generates one from a seed),
 * runs the shared chaos scenario — a small Enzian machine, run as CPU
 * and FPGA timing domains, under randomized coherent, TCP and RDMA
 * traffic with the invariant monitor attached — and dumps per-fault
 * injection/recovery counts. Every plan runs at any thread count
 * with the same result.
 * Exits non-zero if any invariant was violated, any acked write read
 * back wrong, or any traffic failed to complete.
 *
 * Run `enzchaos --help` for the options.
 */

#include <cstdio>
#include <optional>
#include <string>

#include "base/cli.hh"
#include "eci/protocol_table.hh"
#include "fault/chaos_scenario.hh"
#include "fault/fault_plan.hh"

using namespace enzian;

int
main(int argc, char **argv)
{
    fault::ChaosConfig cfg;
    std::string plan_file;
    std::uint64_t seed = 1;
    std::optional<std::uint64_t> traffic_seed;
    bool no_net = false, no_rdma = false, dump_plan = false;
    std::optional<std::string> json;
    cfg.threads = cli::envThreads();
    cli::Tool tool("enzchaos",
                   "Run a fault-injection chaos scenario and report what "
                   "was injected and\nwhat recovered; exit 1 on any "
                   "violation or undelivered traffic.");
    tool.value("--plan", plan_file, "FILE", "run the fault plan in FILE")
        .value("--seed", seed, "N",
               "run FaultPlan::random(N) (default 1)")
        .value("--ops", cfg.ops, "N", "coherent line ops (default 400)")
        .value("--lines", cfg.lines, "N", "lines per pool (default 32)")
        .value("--traffic-seed", traffic_seed, "N",
               "traffic stream seed (default: plan seed)")
        .flag("--no-net", no_net, "skip TCP side traffic")
        .flag("--no-rdma", no_rdma, "skip RDMA side traffic")
        .flag("--with-bmc", cfg.with_bmc, "attach the BMC for rail glitches")
        .choice("--protocol", cfg.protocol, eci::proto::protocolNames(),
                "coherence protocol (default moesi)")
        .value("--threads", cfg.threads, "N",
               "run the timing domains on N threads (default "
               "ENZIAN_THREADS; 0 and 1 run them in sequence)")
        .flag("--dump-plan", dump_plan, "print the effective plan and exit")
        .optionalValue("--json", json, "FILE",
                       "also dump the full stats registry JSON")
        .parse(argc, argv);

    std::optional<fault::FaultPlan> plan;
    if (!plan_file.empty()) {
        std::string err;
        plan = fault::FaultPlan::parseFile(plan_file, err);
        if (!plan)
            tool.usageError("%s", err.c_str());
    } else {
        plan = fault::FaultPlan::random(seed);
    }
    cfg.seed = traffic_seed.value_or(plan->seed);
    cfg.with_net = !no_net;
    cfg.with_rdma = !no_rdma;

    if (dump_plan) {
        std::fputs(plan->toString().c_str(), stdout);
        return 0;
    }

    std::printf("enzchaos: plan seed %llu, %zu fault(s); traffic seed "
                "%llu, %u ops x %u lines%s%s%s\n",
                static_cast<unsigned long long>(plan->seed),
                plan->faults.size(),
                static_cast<unsigned long long>(cfg.seed), cfg.ops,
                cfg.lines, cfg.with_net ? ", tcp" : "",
                cfg.with_rdma ? ", rdma" : "",
                cfg.with_bmc ? ", bmc" : "");
    for (const auto &s : plan->faults)
        std::printf("  %s\n", s.toString().c_str());

    if (cfg.threads > 1)
        std::printf("parallel: %u threads\n", cfg.threads);

    const fault::ChaosResult r = fault::runChaos(*plan, cfg);

    std::printf("\n%s\n", r.report.c_str());
    std::printf("ops: %llu issued, %llu completed\n",
                static_cast<unsigned long long>(r.opsIssued),
                static_cast<unsigned long long>(r.opsCompleted));

    const bool wrote = !json || tool.writeTo(*json, [&](std::ostream &os) {
        os << r.registryJson;
    });

    if (!r.ok) {
        std::printf("\nFAIL: %zu violation(s)\n", r.violations.size());
        for (const auto &v : r.violations)
            std::printf("  %s\n", v.c_str());
        return cli::exitFailure;
    }
    std::printf("\nOK: no invariant violations, all writes readable, "
                "all traffic delivered\n");
    return wrote ? 0 : cli::exitFailure;
}
