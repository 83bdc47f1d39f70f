/**
 * @file
 * enzhpcc: run the HPCC accelerator suite (FFT / LU / PTRANS) on a
 * simulated Enzian from the command line.
 *
 * Runs the selected kernels either directly on the vFPGA fabric or
 * as multi-tenant jobs under the vFPGA scheduler (--sched), verifies
 * every output against the reference model unless --no-verify, and
 * reports GFLOP/s and GB/s per kernel. Exits non-zero on any
 * verification failure.
 *
 * Run `enzhpcc --help` for the options.
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "accel/hpcc/fft.hh"
#include "accel/hpcc/lu.hh"
#include "accel/hpcc/transpose.hh"
#include "base/cli.hh"
#include "fpga/scheduler.hh"
#include "mem/address_map.hh"
#include "obs/registry.hh"
#include "obs/span_tracer.hh"
#include "platform/enzian_machine.hh"
#include "platform/hpcc_scenario.hh"
#include "platform/platform_factory.hh"

using namespace enzian;
using namespace enzian::accel::hpcc;

namespace {

struct Options
{
    std::string kernel = "all";
    std::uint32_t n = 0; // 0 = per-kernel default
    std::uint32_t rows = 256, cols = 256, tile = 64, block = 32;
    std::uint32_t jobs = 4;
    std::uint64_t seed = 1, quantum_us = 5;
    bool sched = false, no_verify = false;
    std::optional<std::string> policy, trace, json;

    bool runs(const std::string &k) const
    {
        return kernel == k || kernel == "all";
    }
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    cli::Tool tool("enzhpcc",
                   "Run the HPCC accelerator suite (FFT / LU / PTRANS) "
                   "on a simulated Enzian.");
    tool.choice("--kernel", opt.kernel, {"fft", "lu", "ptrans", "all"},
                "kernels to run (default all)")
        .value("--n", opt.n, "N",
               "FFT points / LU order (default 1024 / 256)")
        .value("--rows", opt.rows, "R", "PTRANS rows (default 256)")
        .value("--cols", opt.cols, "C", "PTRANS columns (default 256)")
        .value("--tile", opt.tile, "T", "PTRANS tile (default 64)")
        .value("--block", opt.block, "B", "LU panel width (default 32)")
        .value("--jobs", opt.jobs, "N", "timed jobs per kernel (default 4)")
        .value("--seed", opt.seed, "N", "input RNG seed (default 1)")
        .flag("--sched", opt.sched, "run the jobs under the vFPGA scheduler")
        .choice("--policy", opt.policy, {"fifo", "rr", "round-robin"},
                "scheduler policy (default fifo; implies --sched)")
        .value("--quantum-us", opt.quantum_us, "N",
               "round-robin quantum (default 5)")
        .flag("--no-verify", opt.no_verify, "skip the reference checks")
        .value("--trace", opt.trace, "FILE",
               "write a Chrome/Perfetto span trace")
        .optionalValue("--json", opt.json, "FILE",
                       "dump the stats registry JSON")
        .parse(argc, argv);
    if (opt.jobs == 0)
        tool.usageError("--jobs must be at least 1");
    const fpga::SchedPolicy policy = opt.policy.value_or("fifo") == "fifo"
                                         ? fpga::SchedPolicy::Fifo
                                         : fpga::SchedPolicy::RoundRobin;
    opt.sched |= opt.policy.has_value();

    if (opt.trace)
        obs::SpanTracer::global().setEnabled(true);

    auto cfg = platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 256ull << 20;
    cfg.fpga_dram_bytes = 256ull << 20;
    platform::EnzianMachine m(cfg);

    std::unique_ptr<fpga::VfpgaScheduler> sched;
    if (opt.sched) {
        m.loadBitstream("coyote-shell");
        fpga::VfpgaScheduler::Config scfg;
        scfg.policy = policy;
        scfg.quantum = units::us(opt.quantum_us);
        sched = std::make_unique<fpga::VfpgaScheduler>(
            "enzhpcc.sched", m.eventq(), m.shell(), scfg);
    }

    const Addr in = mem::AddressMap::fpgaDramBase;
    const Addr out = mem::AddressMap::fpgaDramBase + (128ull << 20);
    auto &store = m.fpgaMem().store();
    const auto &map = m.map();

    std::printf("%-8s %10s %12s %12s %10s\n", "kernel", "size",
                "GFLOP/s", "GB/s", "verify");
    int failures = 0;

    // A row per kernel; the check reads the last timed job's output.
    auto row = [&](const char *kernel, const std::string &size,
                   std::optional<double> gflops, double gbs, bool ok) {
        char gf[32] = "-";
        if (gflops)
            std::snprintf(gf, sizeof gf, "%.2f", *gflops);
        std::printf("%-8s %10s %12s %12.2f %10s\n", kernel, size.c_str(),
                    gf, gbs, opt.no_verify ? "skipped" : ok ? "ok" : "FAIL");
        failures += !ok;
    };

    if (opt.runs("fft")) {
        FftPipeline::Params p;
        p.n = opt.n ? opt.n : 1024;
        if (p.n < 2 || (p.n & (p.n - 1)))
            tool.usageError("FFT size must be a power of two");
        FftPipeline fft("enzhpcc.fft", m.fpgaEventq(),
                        platform::fpgaPipeConfig(m), p);
        const auto sig = platform::randomSignal(p.n, opt.seed);
        store.write(map.offsetInRegion(in), sig.data(), sig.size() * 8);
        const double secs = platform::timeJobs(
            m, fft, fft.makeJob(in, out), opt.jobs, sched.get());
        row("fft", std::to_string(p.n),
            static_cast<double>(FftPipeline::flops(p.n)) * opt.jobs /
                secs / 1e9,
            2.0 * 8.0 * p.n * opt.jobs / secs / 1e9,
            opt.no_verify || platform::fftMatchesReference(m, out, sig));
    }

    if (opt.runs("lu")) {
        LuPipeline::Params p;
        p.n = opt.n ? opt.n : 256;
        p.block = opt.block;
        if (p.block == 0 || p.block > p.n)
            tool.usageError("bad LU block width");
        LuPipeline lu("enzhpcc.lu", m.fpgaEventq(),
                      platform::fpgaPipeConfig(m), p);
        const auto mat = platform::randomMatrix(p.n, p.n, opt.seed + 1);
        store.write(map.offsetInRegion(in), mat.data(), mat.size() * 4);
        const double secs = platform::timeJobs(
            m, lu, lu.makeJob(in, out), opt.jobs, sched.get());
        row("lu", std::to_string(p.n),
            static_cast<double>(LuPipeline::flops(p.n)) * opt.jobs /
                secs / 1e9,
            static_cast<double>(lu.inputBytes() + lu.outputBytes()) *
                opt.jobs / secs / 1e9,
            opt.no_verify ||
                platform::luMatchesReference(
                    m, out, mat, p.n, 1e-4f * static_cast<float>(p.n)));
    }

    if (opt.runs("ptrans")) {
        TransposePipeline::Params p;
        p.rows = opt.rows;
        p.cols = opt.cols;
        p.tile = opt.tile;
        if (p.tile == 0 || p.rows % p.tile || p.cols % p.tile)
            tool.usageError("tile must divide rows and cols");
        TransposePipeline tr("enzhpcc.ptrans", m.fpgaEventq(),
                             platform::fpgaPipeConfig(m), p);
        const auto mat =
            platform::randomMatrix(p.rows, p.cols, opt.seed + 2);
        store.write(map.offsetInRegion(in), mat.data(), mat.size() * 4);
        const double secs = platform::timeJobs(
            m, tr, tr.makeJob(in, out), opt.jobs, sched.get());
        row("ptrans",
            std::to_string(p.rows) + "x" + std::to_string(p.cols),
            std::nullopt,
            static_cast<double>(tr.bytesMoved()) * opt.jobs / secs / 1e9,
            opt.no_verify || platform::transposeMatchesReference(
                                 m, out, mat, p.rows, p.cols));
    }

    if (sched)
        std::printf("\nscheduler: %s, %llu job(s) completed, %llu "
                    "preemption(s)\n",
                    fpga::toString(policy),
                    static_cast<unsigned long long>(
                        sched->jobsCompleted()),
                    static_cast<unsigned long long>(
                        sched->preemptions()));

    bool wrote = true;
    if (opt.trace) {
        obs::SpanTracer &tracer = obs::SpanTracer::global();
        tracer.setEnabled(false);
        wrote &= tool.writeTo(*opt.trace, [&](std::ostream &os) {
            tracer.writeChromeJson(os);
        });
    }
    if (opt.json)
        wrote &= tool.writeTo(*opt.json, [](std::ostream &os) {
            obs::Registry::global().exportJson(os);
        });

    if (failures) {
        std::printf("\nFAIL: %d kernel(s) diverged from the "
                    "reference\n",
                    failures);
        return cli::exitFailure;
    }
    return wrote ? 0 : cli::exitFailure;
}
