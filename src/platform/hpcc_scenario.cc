/**
 * @file
 * HPCC scenario: pipeline config, seeded inputs, timed batches and
 * reference checks.
 */

#include "platform/hpcc_scenario.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "accel/hpcc/fft.hh"
#include "accel/hpcc/lu.hh"
#include "accel/hpcc/transpose.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "fpga/scheduler.hh"

namespace enzian::platform {

namespace {

/** @p count values of T at physical address @p addr of FPGA DRAM. */
template <typename T>
std::vector<T>
readFpga(EnzianMachine &m, Addr addr, std::size_t count)
{
    std::vector<T> v(count);
    m.fpgaMem().store().read(m.map().offsetInRegion(addr), v.data(),
                             count * sizeof(T));
    return v;
}

} // namespace

accel::Pipeline::Config
fpgaPipeConfig(EnzianMachine &m)
{
    accel::Pipeline::Config cfg;
    cfg.mc = &m.fpgaMem();
    cfg.map = &m.map();
    cfg.clock = &m.fpga().clock();
    cfg.remote = &m.fpgaRemote();
    return cfg;
}

std::vector<std::complex<float>>
randomSignal(std::uint32_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::complex<float>> sig(n);
    for (auto &s : sig)
        s = {static_cast<float>(rng.uniform(-1.0, 1.0)),
             static_cast<float>(rng.uniform(-1.0, 1.0))};
    return sig;
}

std::vector<float>
randomMatrix(std::uint32_t rows, std::uint32_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> a(static_cast<std::size_t>(rows) * cols);
    for (auto &v : a)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return a;
}

double
timeJobs(EnzianMachine &m, accel::Pipeline &pipe,
         const accel::Pipeline::Job &job, std::uint32_t jobs,
         fpga::VfpgaScheduler *sched)
{
    const Tick start = m.now();
    Tick last = 0;
    std::uint32_t completed = 0;
    for (std::uint32_t i = 0; i < jobs; ++i) {
        auto done = [&](Tick t) {
            last = std::max(last, t);
            ++completed;
        };
        if (sched)
            pipe.runUnder(*sched, job, done);
        else
            pipe.process(start, job, done);
    }
    m.run();
    if (completed != jobs)
        fatal("%s completed %u of %u jobs", pipe.name().c_str(),
              completed, jobs);
    return units::toSeconds(last - start);
}

bool
fftMatchesReference(EnzianMachine &m, Addr out,
                    const std::vector<std::complex<float>> &sig)
{
    const auto got = readFpga<std::complex<float>>(m, out, sig.size());
    return accel::hpcc::rmsError(got, accel::hpcc::dftReference(sig)) <=
           1e-6;
}

bool
luMatchesReference(EnzianMachine &m, Addr out, std::vector<float> a,
                   std::uint32_t n, float tol)
{
    const auto got = readFpga<float>(m, out, a.size());
    std::vector<std::int32_t> piv;
    accel::hpcc::luReference(a, piv, n);
    for (std::size_t i = 0; i < got.size(); ++i)
        if (!(std::abs(got[i] - a[i]) <= tol))
            return false;
    return true;
}

bool
transposeMatchesReference(EnzianMachine &m, Addr out,
                          const std::vector<float> &a, std::uint32_t rows,
                          std::uint32_t cols)
{
    const auto got = readFpga<float>(m, out, a.size());
    const auto want = accel::hpcc::transposeReference(a, rows, cols);
    return std::memcmp(got.data(), want.data(), want.size() * 4) == 0;
}

} // namespace enzian::platform
