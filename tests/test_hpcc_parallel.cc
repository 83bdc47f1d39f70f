/**
 * @file
 * Thread-count determinism of the HPCC accelerator suite: the same
 * kernels on the parallel domain-sharded machine must produce
 * byte-identical outputs, completion ticks, and registry exports at
 * every thread count, with the remote-ingest path crossing the
 * CPU/FPGA domain boundary.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "accel/hpcc/fft.hh"
#include "accel/hpcc/lu.hh"
#include "accel/hpcc/transpose.hh"
#include "obs/registry.hh"
#include "platform/enzian_machine.hh"
#include "platform/hpcc_scenario.hh"
#include "platform/platform_factory.hh"

namespace enzian::accel::hpcc {
namespace {

struct HpccRun
{
    std::vector<Tick> ticks;
    std::vector<std::uint8_t> fftOut, luOut, trOut;
    std::string registryJson;

    bool operator==(const HpccRun &o) const
    {
        return ticks == o.ticks && fftOut == o.fftOut &&
               luOut == o.luOut && trOut == o.trOut &&
               registryJson == o.registryJson;
    }
};

HpccRun
hpccWorkload(std::uint32_t threads)
{
    auto cfg = platform::enzianDefaultConfig();
    cfg.cpu_dram_bytes = 64ull << 20;
    cfg.fpga_dram_bytes = 64ull << 20;
    cfg.threads = threads;
    cfg.name = "hpar";
    platform::EnzianMachine m(cfg);

    const Pipeline::Config pcfg = platform::fpgaPipeConfig(m);

    // FPGA-side engines live on the FPGA domain's queue.
    FftPipeline::Params fp;
    fp.n = 128;
    FftPipeline fft("hpar.fft", m.fpgaEventq(), pcfg, fp);
    LuPipeline::Params lp;
    lp.n = 64;
    lp.block = 32;
    LuPipeline lu("hpar.lu", m.fpgaEventq(), pcfg, lp);
    TransposePipeline::Params tp;
    tp.rows = 64;
    tp.cols = 64;
    tp.tile = 32;
    TransposePipeline tr("hpar.ptrans", m.fpgaEventq(), pcfg, tp);

    // Deterministic inputs: the FFT signal in host DRAM (pulled over
    // ECI, crossing the domain boundary), the matrices in FPGA DRAM.
    const auto sig = platform::randomSignal(fp.n, 424242);
    const auto mat = platform::randomMatrix(lp.n, lp.n, 424243);
    const auto tmat = platform::randomMatrix(tp.rows, tp.cols, 424244);

    const Addr host = 1ull << 20;
    const Addr base = mem::AddressMap::fpgaDramBase;
    const Addr fftOut = base + (4ull << 20);
    const Addr luIn = base + (8ull << 20);
    const Addr luOut = base + (12ull << 20);
    const Addr trIn = base + (16ull << 20);
    const Addr trOut = base + (20ull << 20);
    m.cpuMem().store().write(m.map().offsetInRegion(host), sig.data(),
                             sig.size() * 8);
    m.fpgaMem().store().write(m.map().offsetInRegion(luIn),
                              mat.data(), mat.size() * 4);
    m.fpgaMem().store().write(m.map().offsetInRegion(trIn),
                              tmat.data(), tmat.size() * 4);

    HpccRun out;
    auto fftJob = fft.makeJob(host, fftOut);
    fftJob.input_remote = true;
    fft.process(0, fftJob,
                [&out](Tick t) { out.ticks.push_back(t); });
    lu.process(0, lu.makeJob(luIn, luOut),
               [&out](Tick t) { out.ticks.push_back(t); });
    tr.process(0, tr.makeJob(trIn, trOut),
               [&out](Tick t) { out.ticks.push_back(t); });
    m.run();

    out.fftOut.resize(8ull * fp.n);
    out.luOut.resize(lu.outputBytes());
    out.trOut.resize(4ull * tp.rows * tp.cols);
    m.fpgaMem().store().read(m.map().offsetInRegion(fftOut),
                             out.fftOut.data(), out.fftOut.size());
    m.fpgaMem().store().read(m.map().offsetInRegion(luOut),
                             out.luOut.data(), out.luOut.size());
    m.fpgaMem().store().read(m.map().offsetInRegion(trOut),
                             out.trOut.data(), out.trOut.size());

    std::ostringstream os;
    obs::Registry::global().exportJson(os);
    out.registryJson = os.str();
    return out;
}

TEST(HpccParallel, RegistryByteIdenticalAcrossThreadCounts)
{
    const auto r1 = hpccWorkload(1);
    const auto r4 = hpccWorkload(4);
    ASSERT_EQ(r1.ticks.size(), 3u);
    EXPECT_EQ(r1.ticks, r4.ticks);
    EXPECT_FALSE(r1.registryJson.empty());
    EXPECT_EQ(r1.fftOut, r4.fftOut);
    EXPECT_EQ(r1.luOut, r4.luOut);
    EXPECT_EQ(r1.trOut, r4.trOut);
    EXPECT_EQ(r1.registryJson, r4.registryJson);
    EXPECT_TRUE(r1 == r4);
}

TEST(HpccParallel, DomainModeMatchesLegacyMachine)
{
    const auto legacy = hpccWorkload(0);
    const auto domain = hpccWorkload(1);
    EXPECT_EQ(legacy.ticks, domain.ticks);
    EXPECT_EQ(legacy.fftOut, domain.fftOut);
    EXPECT_EQ(legacy.luOut, domain.luOut);
    EXPECT_EQ(legacy.trOut, domain.trOut);
}

} // namespace
} // namespace enzian::accel::hpcc
