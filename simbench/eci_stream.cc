/**
 * @file
 * eci_stream: coherent CPU<->FPGA line traffic over ECI.
 *
 * One default-mode machine, two closed-loop directions with a fixed
 * window of line transactions in flight each: the CPU makes cached
 * writes to FPGA-homed lines (the L2 allocates them), the FPGA makes
 * uncached reads of CPU DRAM pre-seeded with a pattern. Line
 * addresses are drawn from the seed over a working set twice the
 * modelled 16 MiB L2, so the L2 both hits and evicts. Modelled
 * caches start empty.
 */

#include <cstring>
#include <memory>

#include "base/rng.hh"
#include "cache/moesi.hh"
#include "harness.hh"
#include "platform/enzian_machine.hh"
#include "platform/params.hh"
#include "platform/platform_factory.hh"
#include "tracer.hh"

namespace simbench {

namespace {

using namespace enzian;

constexpr std::uint64_t kWorkingSet = 2 * platform::params::cpuL2Bytes;
constexpr std::uint64_t kLines = kWorkingSet / cache::lineSize;
/** Transactions each direction keeps in flight (half the MSHRs). */
constexpr std::uint32_t kWindow = 16;
constexpr std::uint64_t kOpsPerDirection = 250000;
/** Simulated slice of a traced run. */
const Tick kSlice = units::us(20.0);

class EciStream
{
  public:
    EciStream(const RoundConfig &cfg, Round &round)
        : round_(round), ops_(static_cast<std::uint64_t>(
                             kOpsPerDirection * cfg.scale)),
          salt_(cfg.seed * 0x9e3779b97f4a7c15ull)
    {
        Rng rng(cfg.seed);
        for (Direction *d : {&cpu_, &fpga_}) {
            d->lines.resize(ops_);
            for (auto &l : d->lines)
                l = static_cast<std::uint32_t>(rng.below(kLines));
        }
    }

    void
    run(bool traced)
    {
        const auto t0 = Clock::now();
        {
            HostTracer::Scope span("platform", "machine-ctor");
            m_ = std::make_unique<platform::EnzianMachine>(
                platform::enzianDefaultConfig());
        }
        round_.build_s = secondsSince(t0);

        const auto t1 = Clock::now();
        {
            HostTracer::Scope span("mem", "prefill-cpu-dram");
            std::uint8_t page[mem::BackingStore::pageSize];
            for (Addr base = 0; base < kWorkingSet; base += sizeof(page)) {
                for (std::uint32_t off = 0; off < sizeof(page);
                     off += cache::lineSize)
                    fillPattern(base + off, salt_, page + off, cache::lineSize);
                m_->cpuMem().store().write(base, page, sizeof(page));
            }
        }
        round_.wire_s = secondsSince(t1);

        const auto t2 = Clock::now();
        {
            HostTracer::Scope span("sim", "run");
            for (std::uint32_t s = 0; s < kWindow; ++s) {
                issueCpuWrite(s);
                issueFpgaRead(s);
            }
            EventQueue &eq = m_->eventq();
            if (!traced) {
                m_->run();
            } else {
                double &pending = round_.layer["sim.pending_max"];
                for (Tick limit = kSlice; !eq.empty(); limit += kSlice) {
                    HostTracer::Scope slice("sim", "run-slice");
                    m_->runUntil(limit);
                    pending = std::max(
                        pending, static_cast<double>(eq.pendingCount()));
                }
            }
        }
        round_.run_s = secondsSince(t2);
        finish();
    }

  private:
    struct Direction
    {
        std::vector<std::uint32_t> lines;
        std::uint64_t next = 0;
        std::uint64_t done = 0;
        std::uint8_t buf[kWindow][cache::lineSize];
    };

    void
    complete(Direction &d, Tick t)
    {
        ++d.done;
        endTick_ = std::max(endTick_, t);
    }

    void
    issueCpuWrite(std::uint32_t slot)
    {
        if (cpu_.next == ops_)
            return;
        const std::uint64_t op = cpu_.next++;
        const Addr line = mem::AddressMap::fpgaDramBase +
                          Addr{cpu_.lines[op]} * cache::lineSize;
        fillPattern(line, salt_, cpu_.buf[slot], cache::lineSize);
        HostTracer::Scope span("eci", "cpu-write", 2 * op + 1);
        m_->cpuRemote().writeLine(line, cpu_.buf[slot],
                                  [this, slot](Tick t) {
                                      complete(cpu_, t);
                                      issueCpuWrite(slot);
                                  });
    }

    void
    issueFpgaRead(std::uint32_t slot)
    {
        if (fpga_.next == ops_)
            return;
        const std::uint64_t op = fpga_.next++;
        const Addr line = Addr{fpga_.lines[op]} * cache::lineSize;
        HostTracer::Scope span("eci", "fpga-read", 2 * op + 2);
        m_->fpgaRemote().readLineUncached(
            line, fpga_.buf[slot], [this, slot, line](Tick t) {
                std::uint8_t want[cache::lineSize];
                fillPattern(line, salt_, want, sizeof(want));
                if (std::memcmp(want, fpga_.buf[slot], sizeof(want)) != 0)
                    ++mismatches_;
                complete(fpga_, t);
                issueFpgaRead(slot);
            });
    }

    void
    finish()
    {
        round_.attempted = 2 * ops_;
        round_.failed = (ops_ - cpu_.done) + (ops_ - fpga_.done) +
                        mismatches_;
        round_.end_tick = endTick_;
        recordQueue(round_, m_->eventq());
        const obs::Snapshot snap = exportRegistry(round_);
        recordLayers(round_, snap);
        // The remote-agent write path probes the L2 and calls access()
        // only on a hit, so the L2's own miss counter reads 0 here:
        // the hit ratio comes from the agent's local hits instead.
        round_.layer["cache.l2_hit_ratio"] =
            static_cast<double>(m_->cpuRemote().hitsLocal()) /
            static_cast<double>(ops_);
        HostTracer::Scope span("platform", "machine-dtor");
        m_.reset();
    }

    Round &round_;
    const std::uint64_t ops_;
    const std::uint64_t salt_;
    std::unique_ptr<platform::EnzianMachine> m_;
    Direction cpu_;
    Direction fpga_;
    std::uint64_t mismatches_ = 0;
    Tick endTick_ = 0;
};

} // namespace

Round
runEciStream(const RoundConfig &cfg)
{
    Round round;
    auto bench = std::make_unique<EciStream>(cfg, round);
    bench->run(cfg.traced);
    return round;
}

} // namespace simbench
