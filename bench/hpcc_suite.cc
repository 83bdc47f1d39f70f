/**
 * @file
 * HPCC-style accelerator suite on the vFPGA shell: streaming FFT,
 * blocked LU with partial pivoting, and blocked transpose (PTRANS),
 * each verified against its reference model before any number is
 * reported, then timed over a batch of back-to-back jobs.
 *
 * Figures of merit follow HPCC conventions: GFLOP/s for FFT
 * (5 n log2 n per transform) and LU ((2/3) n^3 per factorization),
 * GB/s moved for the bandwidth-bound transpose. The transpose is
 * measured twice: tile-walking strided reads from FPGA DRAM, and
 * the ECI line-pull path from host memory.
 */

#include "bench_common.hh"

#include "accel/hpcc/fft.hh"
#include "accel/hpcc/lu.hh"
#include "accel/hpcc/transpose.hh"
#include "mem/address_map.hh"
#include "platform/hpcc_scenario.hh"

using namespace enzian;
using namespace enzian::bench;
using namespace enzian::accel::hpcc;
using namespace enzian::platform;

namespace {

constexpr Addr kIn = mem::AddressMap::fpgaDramBase;
constexpr Addr kOut = mem::AddressMap::fpgaDramBase + (64ull << 20);
constexpr Addr kHostIn = 1ull << 20;

double
runFft(BenchReport &rep)
{
    auto m = makeBenchMachine(platform::enzianDefaultConfig());
    FftPipeline::Params p; // n = 1024, 8 lanes
    FftPipeline fft("hpcc.fft", m->fpgaEventq(), fpgaPipeConfig(*m), p);

    const auto sig = randomSignal(p.n, 0xfff7);
    m->fpgaMem().store().write(m->map().offsetInRegion(kIn),
                               sig.data(), sig.size() * 8);

    // Verify before timing.
    timeJobs(*m, fft, fft.makeJob(kIn, kOut), 1);
    if (!fftMatchesReference(*m, kOut, sig))
        fatal("FFT output fails the DFT oracle check");

    const std::uint64_t transforms = 16;
    const std::uint32_t jobs = 8;
    const double secs =
        timeJobs(*m, fft, fft.makeJob(kIn, kOut, transforms), jobs);
    const double total =
        static_cast<double>(FftPipeline::flops(p.n)) * transforms *
        jobs;
    const double gflops = total / secs / 1e9;
    const double gbs = 2.0 * 8.0 * p.n * transforms * jobs / secs /
                       1e9;
    std::printf("%-10s %8u %12.2f %12.2f\n", "fft", p.n, gflops, gbs);
    rep.add("fft_gflops", gflops);
    rep.add("fft_gbs", gbs);
    return gflops;
}

double
runLu(BenchReport &rep)
{
    auto m = makeBenchMachine(platform::enzianDefaultConfig());
    LuPipeline::Params p; // n = 256, block 32, 64 MACs
    LuPipeline lu("hpcc.lu", m->fpgaEventq(), fpgaPipeConfig(*m), p);

    const auto mat = randomMatrix(p.n, p.n, 0x10);
    m->fpgaMem().store().write(m->map().offsetInRegion(kIn),
                               mat.data(), mat.size() * 4);

    timeJobs(*m, lu, lu.makeJob(kIn, kOut), 1);
    if (!luMatchesReference(*m, kOut, mat, p.n, 1e-4f))
        fatal("LU factors diverge from the reference");

    const std::uint32_t jobs = 4;
    const double secs = timeJobs(*m, lu, lu.makeJob(kIn, kOut), jobs);
    const double gflops = static_cast<double>(LuPipeline::flops(p.n)) *
                          jobs / secs / 1e9;
    const double gbs =
        static_cast<double>(lu.inputBytes() + lu.outputBytes()) *
        jobs / secs / 1e9;
    std::printf("%-10s %8u %12.2f %12.2f\n", "lu", p.n, gflops, gbs);
    rep.add("lu_gflops", gflops);
    rep.add("lu_gbs", gbs);
    return gflops;
}

void
runTranspose(BenchReport &rep)
{
    auto m = makeBenchMachine(platform::enzianDefaultConfig());
    TransposePipeline::Params p; // 256 x 256, tile 64
    TransposePipeline tr("hpcc.ptrans", m->fpgaEventq(),
                         fpgaPipeConfig(*m), p);

    const auto mat = randomMatrix(p.rows, p.cols, 0x44);
    m->fpgaMem().store().write(m->map().offsetInRegion(kIn),
                               mat.data(), mat.size() * 4);
    m->cpuMem().store().write(m->map().offsetInRegion(kHostIn),
                              mat.data(), mat.size() * 4);

    timeJobs(*m, tr, tr.makeJob(kIn, kOut), 1);
    if (!transposeMatchesReference(*m, kOut, mat, p.rows, p.cols))
        fatal("transpose output is not bit-exact");

    const std::uint32_t jobs = 8;
    const double local_secs =
        timeJobs(*m, tr, tr.makeJob(kIn, kOut), jobs);
    const double local_gbs = static_cast<double>(tr.bytesMoved()) *
                             jobs / local_secs / 1e9;
    auto remote_job = tr.makeJob(kHostIn, kOut);
    remote_job.input_remote = true;
    const double remote_secs = timeJobs(*m, tr, remote_job, jobs);
    const double remote_gbs = static_cast<double>(tr.bytesMoved()) *
                              jobs / remote_secs / 1e9;
    std::printf("%-10s %4ux%-4u %11s %12.2f   (ECI pull: %.2f GB/s)\n",
                "ptrans", p.rows, p.cols, "-", local_gbs, remote_gbs);
    rep.add("ptrans_gbs", local_gbs);
    rep.add("ptrans_eci_gbs", remote_gbs);
}

} // namespace

int
main()
{
    header("HPCC accelerator suite on the vFPGA shell");
    BenchReport rep("hpcc_suite");
    std::printf("%-10s %8s %12s %12s\n", "kernel", "size", "GFLOP/s",
                "GB/s");
    runFft(rep);
    runLu(rep);
    runTranspose(rep);
    std::printf("\nShape check: FFT sustains the butterfly-array rate "
                "(lanes-bound), LU is MAC-array-bound, and PTRANS "
                "lands near the DRAM bandwidth limit with the ECI "
                "pull path below the local tile walk.\n");
    return 0;
}
