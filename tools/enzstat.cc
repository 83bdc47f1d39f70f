/**
 * @file
 * enzstat: run the observability demo scenario on a full Enzian
 * machine and export its statistics.
 *
 * The machine-readable face of the simulator: every SimObject's stat
 * group is in the global registry, so one run surfaces ECI link
 * latencies, home/remote agent occupancy, DRAM channel load, TCP and
 * vFPGA activity, and the CPU PMU in a single document.
 *
 * Run `enzstat --help` for the options. Each export runs over the
 * same single scenario.
 *
 * ENZIAN_THREADS=N runs the machine as parallel timing domains on N
 * worker threads (same stats, bit-identical simulation). --csv is the
 * exception: the sampler snapshots the registry mid-run, which would
 * observe other domains' half-folded counters, so csv runs stay on
 * the legacy single-queue machine.
 */

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "base/cli.hh"
#include "load/testbed.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/slo.hh"
#include "obs/span_tracer.hh"
#include "platform/obs_demo.hh"
#include "platform/platform_factory.hh"
#include "sim/domain_scheduler.hh"

using namespace enzian;

int
main(int argc, char **argv)
{
    std::optional<std::string> json, prom, csv, trace, slo;
    double interval_us = 50000.0;
    const std::uint32_t threads = cli::envThreads();
    cli::Tool tool("enzstat",
                   "Run the observability demo scenario on a full Enzian "
                   "machine and export\nits statistics (default: a "
                   "human-readable dump).");
    tool.optionalValue("--json", json, "FILE", "registry snapshot as JSON")
        .optionalValue("--prom", prom, "FILE",
                       "Prometheus text exposition")
        .optionalValue("--csv", csv, "FILE",
                       "sampled time series (per-interval deltas)")
        .optionalValue("--trace", trace, "FILE",
                       "Chrome/Perfetto span trace JSON")
        .optionalValue("--slo", slo, "FILE",
                       "windowed latency-percentile series of a GBDT "
                       "serving run")
        .value("--interval-us", interval_us, "N",
               "sampling period for --csv (default 50000)")
        .parse(argc, argv);
    if (interval_us <= 0)
        tool.usageError("bad --interval-us");

    auto cfg = platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 256ull << 20;
    cfg.fpga_dram_bytes = 256ull << 20;
    cfg.bitstream = "coyote-shell"; // demo schedules vFPGA apps
    if (threads > 0 && csv) {
        std::fprintf(stderr,
                     "enzstat: --csv samples the registry mid-run; "
                     "ignoring ENZIAN_THREADS=%u and using the "
                     "single-queue machine\n",
                     threads);
    } else {
        cfg.threads = threads;
    }
    platform::EnzianMachine m(cfg);
    platform::ObsDemo demo(m);

    obs::SpanTracer &tracer = obs::SpanTracer::global();
    tracer.setEnabled(trace.has_value());

    // The sampler pre-schedules its snapshot events; the demo's FPGA
    // phase runs into the seconds (partial reconfiguration), so cover
    // a generous window. Extra tail samples just record zero deltas.
    obs::Sampler sampler(obs::Registry::global(), m.eventq(),
                         units::us(interval_us));
    if (csv)
        sampler.run(m.now() + units::ms(3000.0));

    demo.run();

    std::fprintf(stderr,
                 "enzstat: scenario done at %.2f ms sim time: %llu ECI "
                 "lines, %llu TCP bytes, %llu vFPGA jobs\n",
                 units::toMicros(m.now()) / 1000.0,
                 static_cast<unsigned long long>(demo.eciLines()),
                 static_cast<unsigned long long>(demo.tcpBytes()),
                 static_cast<unsigned long long>(demo.fpgaJobs()));
    if (sim::DomainScheduler *sched = m.scheduler()) {
        std::fprintf(
            stderr, "enzstat: %llu epochs, %llu grown, %llu shrinks\n",
            static_cast<unsigned long long>(sched->epochs()),
            static_cast<unsigned long long>(sched->adaptiveGrows()),
            static_cast<unsigned long long>(sched->adaptiveShrinks()));
    }

    bool wrote = true;
    if (slo) {
        // A second, independent run: Poisson arrivals into the GBDT
        // serving testbed at half its estimated capacity, reported as
        // tumbling-window percentile rows.
        const load::SweepConfig sc;
        load::runPoint(
            sc, 0.5 * load::ServingTestbed(sc.testbed).estimatedCapacityRps(),
            0, [&](load::ServingTestbed &, const obs::SloRecorder &rec) {
                wrote &= tool.writeTo(*slo, [&](std::ostream &os) {
                    rec.writeCsv(os);
                });
            });
    }

    obs::Registry &reg = obs::Registry::global();
    if (json)
        wrote &= tool.writeTo(*json, [&](std::ostream &os) {
            reg.exportJson(os);
        });
    if (prom)
        wrote &= tool.writeTo(*prom, [&](std::ostream &os) {
            reg.exportPrometheus(os);
        });
    if (csv)
        wrote &= tool.writeTo(*csv, [&](std::ostream &os) {
            sampler.writeCsv(os);
        });
    if (trace)
        wrote &= tool.writeTo(*trace, [&](std::ostream &os) {
            tracer.writeChromeJson(os);
        });

    if (!json && !prom && !csv && !trace && !slo) {
        // Default: gem5-style text dump of every registered group.
        for (const StatGroup *g : reg.groups())
            g->dump(std::cout);
    }
    return wrote ? 0 : cli::exitFailure;
}
