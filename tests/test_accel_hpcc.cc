/**
 * @file
 * Tests for the HPCC accelerator suite: reference-model verification
 * of the FFT / LU / transpose kernels, the accel::Pipeline base, the
 * multi-tenant scheduler path, and the fault paths (correctable DRAM
 * ECC and ECI message loss under a running job, reconfiguration of a
 * pinned slot).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <sstream>
#include <vector>

#include "accel/hpcc/fft.hh"
#include "accel/hpcc/lu.hh"
#include "accel/hpcc/transpose.hh"
#include "accel/pipeline.hh"
#include "base/rng.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "fpga/bitstream.hh"
#include "fpga/scheduler.hh"
#include "obs/request_context.hh"
#include "platform/enzian_machine.hh"
#include "platform/hpcc_scenario.hh"
#include "platform/platform_factory.hh"

namespace enzian::accel::hpcc {
namespace {

platform::EnzianMachine::Config
smallConfig()
{
    auto cfg = platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 64ull << 20;
    cfg.fpga_dram_bytes = 64ull << 20;
    return cfg;
}

using platform::fpgaPipeConfig;
using platform::randomMatrix;
using platform::randomSignal;

/** Run one local-DRAM job synchronously and return the done tick. */
Tick
runLocal(Pipeline &pipe, mem::MemoryController &mc,
         const mem::AddressMap &map, const Pipeline::Job &job,
         const void *input)
{
    mc.store().write(map.offsetInRegion(job.input), input,
                     job.input_bytes);
    Tick end = 0;
    pipe.process(0, job, [&](Tick t) { end = t; });
    return end;
}

// ------------------------------------------------------------- FFT

TEST(FftPipeline, ImpulseGivesFlatSpectrum)
{
    platform::EnzianMachine m(smallConfig());
    FftPipeline::Params p;
    p.n = 64;
    FftPipeline fft("hpcc.fft", m.eventq(), fpgaPipeConfig(m), p);

    std::vector<std::complex<float>> in(p.n, {0.f, 0.f});
    in[0] = {1.f, 0.f};
    const Addr base = mem::AddressMap::fpgaDramBase;
    const auto job = fft.makeJob(base, base + (1ull << 20));
    const Tick end =
        runLocal(fft, m.fpgaMem(), m.map(), job, in.data());
    EXPECT_GT(end, 0u);

    std::vector<std::complex<float>> out(p.n);
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                             out.data(), job.output_bytes);
    for (const auto &v : out) {
        EXPECT_NEAR(v.real(), 1.0f, 1e-6f);
        EXPECT_NEAR(v.imag(), 0.0f, 1e-6f);
    }
}

TEST(FftPipeline, SinusoidPeaksAtItsBin)
{
    platform::EnzianMachine m(smallConfig());
    FftPipeline::Params p;
    p.n = 128;
    FftPipeline fft("hpcc.fft", m.eventq(), fpgaPipeConfig(m), p);

    const std::uint32_t bin = 5;
    std::vector<std::complex<float>> in(p.n);
    for (std::uint32_t j = 0; j < p.n; ++j) {
        const double ang = 2.0 * M_PI * bin * j / p.n;
        in[j] = {static_cast<float>(std::cos(ang)),
                 static_cast<float>(std::sin(ang))};
    }
    const Addr base = mem::AddressMap::fpgaDramBase;
    const auto job = fft.makeJob(base, base + (1ull << 20));
    runLocal(fft, m.fpgaMem(), m.map(), job, in.data());

    std::vector<std::complex<float>> out(p.n);
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                             out.data(), job.output_bytes);
    for (std::uint32_t k = 0; k < p.n; ++k) {
        const float mag = std::abs(out[k]);
        if (k == bin)
            EXPECT_NEAR(mag, static_cast<float>(p.n), 0.01f);
        else
            EXPECT_LT(mag, 0.01f); // float leakage only
    }
}

TEST(FftPipeline, MatchesDftOracleAcrossSizesAndSeeds)
{
    platform::EnzianMachine m(smallConfig());
    const Addr base = mem::AddressMap::fpgaDramBase;
    for (const std::uint32_t n : {64u, 128u, 256u, 512u}) {
        for (const std::uint64_t seed : {7ull, 1234ull}) {
            FftPipeline::Params p;
            p.n = n;
            FftPipeline fft("hpcc.fft" + std::to_string(n) + "_" +
                                std::to_string(seed),
                            m.eventq(), fpgaPipeConfig(m), p);
            const auto in = randomSignal(n, seed);
            const auto job = fft.makeJob(base, base + (4ull << 20));
            runLocal(fft, m.fpgaMem(), m.map(), job, in.data());

            std::vector<std::complex<float>> out(n);
            m.fpgaMem().store().read(
                m.map().offsetInRegion(job.output), out.data(),
                job.output_bytes);
            EXPECT_LT(rmsError(out, dftReference(in)), 1e-6)
                << "n=" << n << " seed=" << seed;
        }
    }
}

TEST(FftPipeline, LinearityHolds)
{
    platform::EnzianMachine m(smallConfig());
    FftPipeline::Params p;
    p.n = 256;
    FftPipeline fft("hpcc.fft", m.eventq(), fpgaPipeConfig(m), p);
    const Addr base = mem::AddressMap::fpgaDramBase;

    const auto x = randomSignal(p.n, 11);
    const auto y = randomSignal(p.n, 22);
    std::vector<std::complex<float>> sum(p.n);
    for (std::uint32_t i = 0; i < p.n; ++i)
        sum[i] = x[i] + y[i];

    auto transform = [&](const std::vector<std::complex<float>> &sig) {
        const auto job = fft.makeJob(base, base + (4ull << 20));
        runLocal(fft, m.fpgaMem(), m.map(), job, sig.data());
        std::vector<std::complex<float>> out(p.n);
        m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                                 out.data(), job.output_bytes);
        return out;
    };
    const auto fx = transform(x);
    const auto fy = transform(y);
    const auto fsum = transform(sum);
    for (std::uint32_t k = 0; k < p.n; ++k)
        EXPECT_LT(std::abs(fsum[k] - (fx[k] + fy[k])), 5e-3f);
}

TEST(FftPipeline, TimingScalesWithBatchAndLanes)
{
    platform::EnzianMachine m(smallConfig());
    FftPipeline::Params p8;
    p8.n = 1024;
    p8.lanes = 8;
    FftPipeline wide("hpcc.fft8", m.eventq(), fpgaPipeConfig(m), p8);
    FftPipeline::Params p1 = p8;
    p1.lanes = 1;
    FftPipeline narrow("hpcc.fft1", m.eventq(), fpgaPipeConfig(m),
                       p1);
    // More lanes -> fewer steady-state cycles for the same batch.
    EXPECT_LT(wide.serviceCycles(p8.n), narrow.serviceCycles(p8.n));
    // Two batched transforms take more cycles than one.
    EXPECT_GT(wide.serviceCycles(2 * p8.n),
              wide.serviceCycles(p8.n));
    // Flop count convention: 5 n log2 n.
    EXPECT_EQ(FftPipeline::flops(1024), 5ull * 1024 * 10);
}

// -------------------------------------------------------------- LU

TEST(LuPipeline, FactorsAndPivotsMatchUnblockedReference)
{
    platform::EnzianMachine m(smallConfig());
    LuPipeline::Params p;
    p.n = 96;
    p.block = 32;
    LuPipeline lu("hpcc.lu", m.eventq(), fpgaPipeConfig(m), p);

    const auto a = randomMatrix(p.n, p.n, 99);
    const Addr base = mem::AddressMap::fpgaDramBase;
    const auto job = lu.makeJob(base, base + (8ull << 20));
    runLocal(lu, m.fpgaMem(), m.map(), job, a.data());

    std::vector<float> got(static_cast<std::size_t>(p.n) * p.n);
    std::vector<std::int32_t> piv(p.n);
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                             got.data(), got.size() * 4);
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output) +
                                 got.size() * 4,
                             piv.data(), piv.size() * 4);

    auto ref = a;
    std::vector<std::int32_t> refPiv;
    luReference(ref, refPiv, p.n);
    ASSERT_EQ(piv, refPiv);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], ref[i], 1e-5f) << "element " << i;
}

TEST(LuPipeline, SolveResidualIsSmall)
{
    platform::EnzianMachine m(smallConfig());
    LuPipeline::Params p;
    p.n = 128;
    LuPipeline lu("hpcc.lu", m.eventq(), fpgaPipeConfig(m), p);

    const auto a = randomMatrix(p.n, p.n, 5);
    const auto xTrue = randomMatrix(p.n, 1, 6);
    std::vector<float> b(p.n, 0.f);
    for (std::uint32_t i = 0; i < p.n; ++i)
        for (std::uint32_t j = 0; j < p.n; ++j)
            b[i] += a[i * p.n + j] * xTrue[j];

    const Addr base = mem::AddressMap::fpgaDramBase;
    const auto job = lu.makeJob(base, base + (8ull << 20));
    runLocal(lu, m.fpgaMem(), m.map(), job, a.data());

    std::vector<float> factors(static_cast<std::size_t>(p.n) * p.n);
    std::vector<std::int32_t> piv(p.n);
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                             factors.data(), factors.size() * 4);
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output) +
                                 factors.size() * 4,
                             piv.data(), piv.size() * 4);

    const auto x = luSolve(factors, piv, b, p.n);
    // ||Ax - b||_inf relative to the scale of the problem.
    EXPECT_LT(residualInf(a, x, b, p.n), 1e-3 * p.n);
}

TEST(LuPipeline, PartialPivotingBoundsMultipliers)
{
    platform::EnzianMachine m(smallConfig());
    LuPipeline::Params p;
    p.n = 64;
    p.block = 16;
    LuPipeline lu("hpcc.lu", m.eventq(), fpgaPipeConfig(m), p);

    const auto a = randomMatrix(p.n, p.n, 77);
    const Addr base = mem::AddressMap::fpgaDramBase;
    const auto job = lu.makeJob(base, base + (8ull << 20));
    runLocal(lu, m.fpgaMem(), m.map(), job, a.data());

    std::vector<float> got(static_cast<std::size_t>(p.n) * p.n);
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                             got.data(), got.size() * 4);
    for (std::uint32_t i = 0; i < p.n; ++i)
        for (std::uint32_t j = 0; j < i; ++j)
            EXPECT_LE(std::fabs(got[i * p.n + j]), 1.0f + 1e-6f);
}

TEST(LuPipeline, RandomizedSizesAndBlockWidths)
{
    platform::EnzianMachine m(smallConfig());
    const Addr base = mem::AddressMap::fpgaDramBase;
    Rng rng(2026);
    for (const std::uint32_t n : {32u, 64u, 96u, 160u}) {
        for (const std::uint32_t block : {16u, 32u, 64u}) {
            LuPipeline::Params p;
            p.n = n;
            p.block = block;
            LuPipeline lu("hpcc.lu" + std::to_string(n) + "_" +
                              std::to_string(block),
                          m.eventq(), fpgaPipeConfig(m), p);
            const auto a = randomMatrix(n, n, rng.next());
            const auto job = lu.makeJob(base, base + (8ull << 20));
            runLocal(lu, m.fpgaMem(), m.map(), job, a.data());

            std::vector<float> got(static_cast<std::size_t>(n) * n);
            std::vector<std::int32_t> piv(n);
            m.fpgaMem().store().read(
                m.map().offsetInRegion(job.output), got.data(),
                got.size() * 4);
            m.fpgaMem().store().read(
                m.map().offsetInRegion(job.output) + got.size() * 4,
                piv.data(), piv.size() * 4);

            auto ref = a;
            std::vector<std::int32_t> refPiv;
            luReference(ref, refPiv, n);
            EXPECT_EQ(piv, refPiv)
                << "n=" << n << " block=" << block;
            double worst = 0.0;
            for (std::size_t i = 0; i < got.size(); ++i)
                worst = std::max(
                    worst, std::fabs(static_cast<double>(got[i]) -
                                     ref[i]));
            EXPECT_LT(worst, 1e-4)
                << "n=" << n << " block=" << block;
        }
    }
}

TEST(LuPipeline, SingularMatrixCompletesWithoutCrash)
{
    platform::EnzianMachine m(smallConfig());
    LuPipeline::Params p;
    p.n = 32;
    LuPipeline lu("hpcc.lu", m.eventq(), fpgaPipeConfig(m), p);

    auto a = randomMatrix(p.n, p.n, 3);
    for (std::uint32_t i = 0; i < p.n; ++i)
        a[i * p.n + 4] = 0.0f; // kill one column entirely
    const Addr base = mem::AddressMap::fpgaDramBase;
    const auto job = lu.makeJob(base, base + (8ull << 20));
    const Tick end = runLocal(lu, m.fpgaMem(), m.map(), job, a.data());
    EXPECT_GT(end, 0u);
    EXPECT_EQ(lu.jobsCompleted(), 1u);
}

// -------------------------------------------------------- transpose

TEST(TransposePipeline, BitExactAgainstReference)
{
    platform::EnzianMachine m(smallConfig());
    TransposePipeline::Params p;
    p.rows = 128;
    p.cols = 256;
    p.tile = 64;
    TransposePipeline tr("hpcc.ptrans", m.eventq(),
                         fpgaPipeConfig(m), p);

    const auto a = randomMatrix(p.rows, p.cols, 42);
    const Addr base = mem::AddressMap::fpgaDramBase;
    const auto job = tr.makeJob(base, base + (8ull << 20));
    runLocal(tr, m.fpgaMem(), m.map(), job, a.data());

    std::vector<float> got(a.size());
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                             got.data(), got.size() * 4);
    const auto want = transposeReference(a, p.rows, p.cols);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * 4),
              0);
}

TEST(TransposePipeline, DoubleTransposeIsIdentity)
{
    platform::EnzianMachine m(smallConfig());
    TransposePipeline::Params fwd;
    fwd.rows = 64;
    fwd.cols = 128;
    fwd.tile = 32;
    TransposePipeline f("hpcc.ptrans_f", m.eventq(),
                        fpgaPipeConfig(m), fwd);
    TransposePipeline::Params bwd;
    bwd.rows = 128;
    bwd.cols = 64;
    bwd.tile = 32;
    TransposePipeline g("hpcc.ptrans_b", m.eventq(),
                        fpgaPipeConfig(m), bwd);

    const auto a = randomMatrix(fwd.rows, fwd.cols, 17);
    const Addr base = mem::AddressMap::fpgaDramBase;
    const Addr mid = base + (8ull << 20);
    const Addr out = base + (16ull << 20);
    runLocal(f, m.fpgaMem(), m.map(), f.makeJob(base, mid), a.data());
    Tick end = 0;
    g.process(0, g.makeJob(mid, out), [&](Tick t) { end = t; });
    ASSERT_GT(end, 0u);

    std::vector<float> back(a.size());
    m.fpgaMem().store().read(m.map().offsetInRegion(out), back.data(),
                             back.size() * 4);
    EXPECT_EQ(std::memcmp(back.data(), a.data(), back.size() * 4), 0);
}

TEST(TransposePipeline, TileWalkPaysStridedAccesses)
{
    platform::EnzianMachine m(smallConfig());
    TransposePipeline::Params p;
    p.rows = 128;
    p.cols = 128;
    p.tile = 32;
    TransposePipeline tr("hpcc.ptrans", m.eventq(),
                         fpgaPipeConfig(m), p);

    const auto a = randomMatrix(p.rows, p.cols, 1);
    const Addr base = mem::AddressMap::fpgaDramBase;
    const std::uint64_t before = m.fpgaMem().stridedRows();
    runLocal(tr, m.fpgaMem(), m.map(),
             tr.makeJob(base, base + (8ull << 20)), a.data());
    // One strided access of `tile` rows per tile.
    EXPECT_EQ(m.fpgaMem().stridedRows() - before,
              static_cast<std::uint64_t>(p.rows) * p.cols / p.tile);
}

TEST(TransposePipeline, RemoteIngestOverEciIsBitExact)
{
    platform::EnzianMachine m(smallConfig());
    TransposePipeline::Params p;
    p.rows = 64;
    p.cols = 64;
    p.tile = 32;
    TransposePipeline tr("hpcc.ptrans", m.eventq(),
                         fpgaPipeConfig(m), p);

    // Input lives in CPU (host) DRAM; the engine pulls it over ECI.
    const auto a = randomMatrix(p.rows, p.cols, 23);
    const Addr host = 1ull << 20;
    m.cpuMem().store().write(m.map().offsetInRegion(host), a.data(),
                             a.size() * 4);
    auto job = tr.makeJob(host, mem::AddressMap::fpgaDramBase);
    job.input_remote = true;
    Tick end = 0;
    tr.process(0, job, [&](Tick t) { end = t; });
    m.run();
    ASSERT_GT(end, 0u);

    std::vector<float> got(a.size());
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                             got.data(), got.size() * 4);
    const auto want = transposeReference(a, p.rows, p.cols);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * 4),
              0);
}

// ---------------------------------------------------- pipeline base

/** Minimal concrete pipeline for base-class behavior tests. */
class AddOnePipeline : public Pipeline
{
  public:
    AddOnePipeline(std::string name, EventQueue &eq,
                   const Config &cfg)
        : Pipeline(std::move(name), eq, cfg)
    {
        addStage("add", 10, 0.5,
                 [](std::vector<std::uint8_t> &buf) {
                     for (auto &b : buf)
                         ++b;
                 });
        addStage("pass", 6, 0.25, [](std::vector<std::uint8_t> &) {});
    }
};

TEST(PipelineBase, ServiceCyclesIsFillPlusSteadyState)
{
    platform::EnzianMachine m(smallConfig());
    AddOnePipeline pipe("hpcc.base", m.eventq(), fpgaPipeConfig(m));
    // sum(fill) = 16; max(ceil(ii * items)) = ceil(0.5 * 100) = 50.
    EXPECT_EQ(pipe.serviceCycles(100), 16u + 50u);
    EXPECT_EQ(pipe.serviceCycles(1), 16u + 1u);
    EXPECT_EQ(pipe.stageCount(), 2u);
    EXPECT_EQ(pipe.stageName(0), "add");
}

TEST(PipelineBase, SerializedJobsCompleteInFifoOrder)
{
    platform::EnzianMachine m(smallConfig());
    AddOnePipeline pipe("hpcc.base", m.eventq(), fpgaPipeConfig(m));
    const Addr base = mem::AddressMap::fpgaDramBase;
    std::vector<std::uint8_t> in(1024, 7);
    m.fpgaMem().store().write(m.map().offsetInRegion(base), in.data(),
                              in.size());

    Pipeline::Job job{};
    job.input = base;
    job.input_bytes = in.size();
    job.output = base + (1ull << 20);
    job.output_bytes = in.size();
    job.items = in.size();

    std::vector<Tick> ends;
    for (int i = 0; i < 3; ++i)
        pipe.process(0, job,
                     [&ends](Tick t) { ends.push_back(t); });
    ASSERT_EQ(ends.size(), 3u);
    EXPECT_LT(ends[0], ends[1]);
    EXPECT_LT(ends[1], ends[2]);
    EXPECT_EQ(pipe.jobsCompleted(), 3u);
    EXPECT_EQ(pipe.backlog(), 0u);

    std::vector<std::uint8_t> out(in.size());
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                             out.data(), out.size());
    EXPECT_EQ(out[0], 8); // 7 + 1
}

TEST(PipelineBase, StatsCountJobsAndBytes)
{
    platform::EnzianMachine m(smallConfig());
    AddOnePipeline pipe("hpcc.base", m.eventq(), fpgaPipeConfig(m));
    const Addr base = mem::AddressMap::fpgaDramBase;
    std::vector<std::uint8_t> in(512, 1);
    m.fpgaMem().store().write(m.map().offsetInRegion(base), in.data(),
                              in.size());
    Pipeline::Job job{};
    job.input = base;
    job.input_bytes = in.size();
    job.output = base + (1ull << 20);
    job.output_bytes = in.size();
    job.items = in.size();
    pipe.process(0, job, {});
    pipe.process(0, job, {});
    EXPECT_EQ(pipe.jobsCompleted(), 2u);
    EXPECT_EQ(pipe.bytesIn(), 1024u);
    EXPECT_EQ(pipe.bytesOut(), 1024u);
    EXPECT_GT(pipe.stageBusy(0).count(), 0u);
    EXPECT_GT(pipe.stageOccupancy(0), 0.0);
    EXPECT_LE(pipe.stageOccupancy(0), 1.0);
}

TEST(PipelineBase, FlowIdAllocatorIsDeterministic)
{
    obs::FlowIdAllocator alloc(100);
    EXPECT_EQ(alloc.next(), 100u);
    EXPECT_EQ(alloc.next(), 101u);
    EXPECT_EQ(alloc.issued(100), 2u);
    obs::FlowIdAllocator dflt;
    EXPECT_EQ(dflt.next(), 1u); // id 0 means "untraced"
}

// --------------------------------------------- multi-tenant sharing

struct SchedResult
{
    std::vector<std::complex<float>> fft;
    std::vector<float> lu;
    std::vector<float> tr;
    std::uint64_t preemptions = 0;
};

SchedResult
runSharedShell(fpga::SchedPolicy policy, Tick quantum)
{
    platform::EnzianMachine m(smallConfig());
    m.loadBitstream("coyote-shell");
    fpga::VfpgaScheduler::Config scfg;
    scfg.policy = policy;
    scfg.quantum = quantum;
    fpga::VfpgaScheduler sched("hpcc.sched", m.eventq(), m.shell(),
                               scfg);

    const Addr base = mem::AddressMap::fpgaDramBase;
    const Addr fftIn = base, fftOut = base + (4ull << 20);
    const Addr luIn = base + (8ull << 20),
               luOut = base + (12ull << 20);
    const Addr trIn = base + (16ull << 20),
               trOut = base + (20ull << 20);

    FftPipeline::Params fp;
    fp.n = 256;
    FftPipeline fft("hpcc.fft", m.eventq(), fpgaPipeConfig(m), fp);
    LuPipeline::Params lp;
    lp.n = 128;
    lp.block = 32;
    LuPipeline lu("hpcc.lu", m.eventq(), fpgaPipeConfig(m), lp);
    TransposePipeline::Params tp;
    tp.rows = 64;
    tp.cols = 64;
    tp.tile = 32;
    TransposePipeline tr("hpcc.ptrans", m.eventq(),
                         fpgaPipeConfig(m), tp);

    const auto sig = randomSignal(fp.n, 1);
    const auto mat = randomMatrix(lp.n, lp.n, 2);
    const auto tmat = randomMatrix(tp.rows, tp.cols, 3);
    auto &store = m.fpgaMem().store();
    const auto &map = m.map();
    store.write(map.offsetInRegion(fftIn), sig.data(),
                sig.size() * 8);
    store.write(map.offsetInRegion(luIn), mat.data(),
                mat.size() * 4);
    store.write(map.offsetInRegion(trIn), tmat.data(),
                tmat.size() * 4);

    // Nine jobs onto four slots: the FFT and transpose jobs finish
    // within one quantum, so extra waves keep the queue populated
    // long enough for a round-robin scheduler to preempt the
    // long-running LU kernels. The duplicate jobs write the same
    // bytes, so results are order-independent.
    int done = 0;
    for (int round = 0; round < 3; ++round) {
        fft.runUnder(sched, fft.makeJob(fftIn, fftOut),
                     [&](Tick) { ++done; });
        lu.runUnder(sched, lu.makeJob(luIn, luOut),
                    [&](Tick) { ++done; });
        tr.runUnder(sched, tr.makeJob(trIn, trOut),
                    [&](Tick) { ++done; });
    }
    m.run();
    EXPECT_EQ(done, 9);
    EXPECT_EQ(sched.jobsCompleted(), 9u);

    SchedResult r;
    r.fft.resize(fp.n);
    r.lu.resize(static_cast<std::size_t>(lp.n) * lp.n);
    r.tr.resize(static_cast<std::size_t>(tp.rows) * tp.cols);
    store.read(map.offsetInRegion(fftOut), r.fft.data(),
               r.fft.size() * 8);
    store.read(map.offsetInRegion(luOut), r.lu.data(),
               r.lu.size() * 4);
    store.read(map.offsetInRegion(trOut), r.tr.data(),
               r.tr.size() * 4);
    r.preemptions = sched.preemptions();
    return r;
}

TEST(HpccMultiTenant, KernelsShareShellUnderFifo)
{
    const auto r =
        runSharedShell(fpga::SchedPolicy::Fifo, units::ms(10));
    EXPECT_EQ(r.preemptions, 0u); // FIFO runs to completion
    const auto sig = randomSignal(256, 1);
    EXPECT_LT(rmsError(r.fft, dftReference(sig)), 1e-6);

    auto mat = randomMatrix(128, 128, 2);
    std::vector<std::int32_t> piv;
    luReference(mat, piv, 128);
    for (std::size_t i = 0; i < r.lu.size(); ++i)
        ASSERT_NEAR(r.lu[i], mat[i], 1e-4f);

    const auto want =
        transposeReference(randomMatrix(64, 64, 3), 64, 64);
    EXPECT_EQ(std::memcmp(r.tr.data(), want.data(),
                          want.size() * 4),
              0);
}

TEST(HpccMultiTenant, KernelsShareShellUnderRoundRobin)
{
    // A tiny quantum forces time slicing; results must not change.
    const auto rr =
        runSharedShell(fpga::SchedPolicy::RoundRobin, units::us(5));
    EXPECT_GT(rr.preemptions, 0u);
    const auto fifo =
        runSharedShell(fpga::SchedPolicy::Fifo, units::ms(10));
    EXPECT_EQ(std::memcmp(rr.fft.data(), fifo.fft.data(),
                          rr.fft.size() * 8),
              0);
    EXPECT_EQ(std::memcmp(rr.lu.data(), fifo.lu.data(),
                          rr.lu.size() * 4),
              0);
    EXPECT_EQ(std::memcmp(rr.tr.data(), fifo.tr.data(),
                          rr.tr.size() * 4),
              0);
}

// -------------------------------------------------------- fault path

TEST(HpccFault, FftSurvivesDramEccAndEciLoss)
{
    std::istringstream planText(
        "seed 9\n"
        "fault kind=dram-ecc-correctable prob=1.0 target=1 at_us=0 "
        "until_us=100000\n"
        "fault kind=eci-msg-drop prob=0.02 at_us=0 "
        "until_us=100000\n");
    std::string err;
    const auto plan = fault::FaultPlan::parse(planText, err);
    ASSERT_TRUE(plan.has_value()) << err;

    platform::EnzianMachine m(smallConfig());
    fault::FaultInjector inj("hpcc.fault", m.eventq(), *plan);
    inj.attachEci(m.fabric(), m.cpuHome(), m.fpgaHome(),
                  m.cpuRemote(), m.fpgaRemote());
    inj.attachDram(m.cpuMem().dram(), m.fpgaMem().dram());
    inj.arm();

    FftPipeline::Params p;
    p.n = 256;
    FftPipeline fft("hpcc.fft", m.eventq(), fpgaPipeConfig(m), p);

    // Input in host DRAM so the ingest actually crosses the lossy
    // ECI links; output lands in FPGA DRAM under ECC scrubbing.
    const auto in = randomSignal(p.n, 31);
    const Addr host = 1ull << 20;
    m.cpuMem().store().write(m.map().offsetInRegion(host), in.data(),
                             in.size() * 8);
    auto job = fft.makeJob(host, mem::AddressMap::fpgaDramBase);
    job.input_remote = true;
    Tick end = 0;
    fft.process(0, job, [&](Tick t) { end = t; });
    m.run();
    ASSERT_GT(end, 0u) << "job did not complete under faults";

    std::vector<std::complex<float>> out(p.n);
    m.fpgaMem().store().read(m.map().offsetInRegion(job.output),
                             out.data(), job.output_bytes);
    EXPECT_LT(rmsError(out, dftReference(in)), 1e-6);
}

TEST(HpccFaultDeathTest, ReconfigOfPinnedSlotIsFatal)
{
    platform::EnzianMachine m(smallConfig());
    m.loadBitstream("coyote-shell");

    FftPipeline::Params p;
    p.n = 128;
    FftPipeline fft("hpcc.fft", m.eventq(), fpgaPipeConfig(m), p);
    fft.bindSlot(&m.shell(), 2);

    // A remote-ingest job stays in flight until the queue drains, so
    // the slot is pinned right now.
    const auto in = randomSignal(p.n, 8);
    const Addr host = 1ull << 20;
    m.cpuMem().store().write(m.map().offsetInRegion(host), in.data(),
                             in.size() * 8);
    auto job = fft.makeJob(host, mem::AddressMap::fpgaDramBase);
    job.input_remote = true;
    fft.process(0, job, {});
    ASSERT_EQ(m.shell().pins(2), 1u);

    EXPECT_EXIT(m.shell().loadApp(2, "intruder"),
                ::testing::ExitedWithCode(1),
                "while a pipeline job is in flight");

    // The simulation itself still drains cleanly.
    m.run();
    EXPECT_EQ(m.shell().pins(2), 0u);
    EXPECT_EQ(fft.jobsCompleted(), 1u);
}

} // namespace
} // namespace enzian::accel::hpcc
