/**
 * @file
 * The HPCC scenario: what every HPCC run on a machine shares, built
 * once for the enzhpcc tool, the hpcc_suite bench and the tests.
 *
 * The HPCC kernels (accel/hpcc) run on the FPGA: they ingest from and
 * write back to FPGA DRAM in the fabric clock, and pull host-memory
 * input over ECI through the FPGA's remote agent. Their inputs are
 * seeded uniform draws in [-1, 1); a timed run issues a batch of
 * identical jobs back to back and reports the makespan; each output
 * is checked against the kernel's reference model.
 */

#ifndef ENZIAN_PLATFORM_HPCC_SCENARIO_HH
#define ENZIAN_PLATFORM_HPCC_SCENARIO_HH

#include <complex>
#include <cstdint>
#include <vector>

#include "accel/pipeline.hh"
#include "platform/enzian_machine.hh"

namespace enzian::fpga {
class VfpgaScheduler;
} // namespace enzian::fpga

namespace enzian::platform {

/**
 * Config of a pipeline on @p m's FPGA: FPGA DRAM, the fabric clock,
 * and the FPGA remote agent for ingest from host memory over ECI.
 */
accel::Pipeline::Config fpgaPipeConfig(EnzianMachine &m);

/** @p n complex samples drawn from Rng(@p seed), uniform in [-1, 1). */
std::vector<std::complex<float>> randomSignal(std::uint32_t n,
                                              std::uint64_t seed);

/** A row-major @p rows x @p cols matrix drawn like randomSignal. */
std::vector<float> randomMatrix(std::uint32_t rows, std::uint32_t cols,
                                std::uint64_t seed);

/**
 * Issue @p jobs copies of @p job at now(), straight into the fabric
 * or under @p sched when it is set, run @p m until they drain and
 * return the makespan in seconds. Fatal unless every job completes.
 */
double timeJobs(EnzianMachine &m, accel::Pipeline &pipe,
                const accel::Pipeline::Job &job, std::uint32_t jobs,
                fpga::VfpgaScheduler *sched = nullptr);

/** Is the FFT at FPGA address @p out within 1e-6 RMS of @p sig's DFT? */
bool fftMatchesReference(EnzianMachine &m, Addr out,
                         const std::vector<std::complex<float>> &sig);

/**
 * Are the n x n LU factors at FPGA address @p out within @p tol of
 * the unblocked reference factorization of @p a, element by element?
 */
bool luMatchesReference(EnzianMachine &m, Addr out, std::vector<float> a,
                        std::uint32_t n, float tol);

/** Is the matrix at FPGA address @p out @p a transposed, bit for bit? */
bool transposeMatchesReference(EnzianMachine &m, Addr out,
                               const std::vector<float> &a,
                               std::uint32_t rows, std::uint32_t cols);

} // namespace enzian::platform

#endif // ENZIAN_PLATFORM_HPCC_SCENARIO_HH
