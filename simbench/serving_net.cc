/**
 * @file
 * serving_net: FPGA network serving under open-loop load.
 *
 * Poisson arrivals in simulated time against two ServingTestbed
 * services, each at two fixed absolute rates, about 0.5x and 1.2x
 * the knees bench/serving_slo reports (tcp 793 krps, rdma 2598 krps):
 * TCP echo of 2 KiB over 4 flows first, then 4 KiB RDMA reads from
 * FPGA DRAM. Each operating point gets a fresh testbed, so modelled
 * caches and queues start empty. The overload points run with deep
 * event queues.
 */

#include <memory>

#include "harness.hh"
#include "load/testbed.hh"
#include "obs/slo.hh"
#include "tracer.hh"

namespace simbench {

namespace {

using namespace enzian;

struct Point
{
    const char *key;
    load::ServiceKind service;
    double rate_rps;
    double duration_us;
};

const Point kPoints[] = {
    {"tcp_lo", load::ServiceKind::Tcp, 400e3, 20000.0},
    {"tcp_hi", load::ServiceKind::Tcp, 950e3, 20000.0},
    {"rdma_lo", load::ServiceKind::Rdma, 1300e3, 10000.0},
    {"rdma_hi", load::ServiceKind::Rdma, 3100e3, 10000.0},
};

/** Simulated slice of a traced run. */
const Tick kSlice = units::us(20.0);

/**
 * Forwards the generator's requests to the testbed's service, with a
 * host-time span per issue call, and keeps the last completion tick.
 */
class TimedDriver : public load::ServiceDriver
{
  public:
    explicit TimedDriver(load::ServiceDriver &inner) : inner_(inner) {}

    void
    issue(const load::Request &req, Done done) override
    {
        HostTracer::Scope span("load", "service-issue", req.id);
        inner_.issue(req, [this, done = std::move(done)](Tick t) {
            last_ = std::max(last_, t);
            done(t);
        });
    }

    const char *kind() const override { return inner_.kind(); }
    Tick lastCompletion() const { return last_; }

  private:
    load::ServiceDriver &inner_;
    Tick last_ = 0;
};

void
runPoint(const Point &p, std::uint32_t index, const RoundConfig &cfg,
         Round &round)
{
    load::TestbedConfig tc;
    tc.service = p.service;
    tc.seed = cfg.seed;
    const auto t0 = Clock::now();
    std::unique_ptr<load::ServingTestbed> bed;
    {
        HostTracer::Scope span("platform", "testbed-ctor");
        bed = std::make_unique<load::ServingTestbed>(tc);
    }
    round.build_s += secondsSince(t0);

    const auto t1 = Clock::now();
    std::unique_ptr<obs::SloRecorder> slo;
    std::unique_ptr<TimedDriver> drv;
    std::unique_ptr<load::LoadGen> gen;
    {
        HostTracer::Scope span("load", "loadgen-wire");
        obs::SloRecorder::Config sc;
        sc.name = p.key;
        slo = std::make_unique<obs::SloRecorder>(sc);
        drv = std::make_unique<TimedDriver>(bed->driver());
        load::LoadGen::Config lc;
        lc.arrival.rate_rps = p.rate_rps;
        lc.arrival.seed = cfg.seed * 4 + index;
        lc.duration = units::us(p.duration_us * cfg.scale);
        gen = std::make_unique<load::LoadGen>("serving.loadgen",
                                              bed->eventq(), *drv, *slo, lc);
    }
    round.wire_s += secondsSince(t1);

    const auto t2 = Clock::now();
    {
        HostTracer::Scope span("sim", "run");
        {
            HostTracer::Scope start("load", "loadgen-start");
            gen->start();
        }
        EventQueue &eq = bed->eventq();
        if (!cfg.traced) {
            bed->run();
        } else {
            double &pending = round.layer["sim.pending_max"];
            for (Tick limit = eq.now() + kSlice; !eq.empty();
                 limit += kSlice) {
                HostTracer::Scope slice("sim", "run-slice");
                bed->machine().runUntil(limit);
                pending = std::max(pending,
                                   static_cast<double>(eq.pendingCount()));
            }
        }
    }
    round.run_s += secondsSince(t2);

    // Every offered request must complete.
    const std::uint64_t offered = gen->offeredCount();
    const std::uint64_t completed = gen->completedCount();
    round.attempted += offered;
    round.failed += offered - completed;
    round.end_tick = std::max(round.end_tick, drv->lastCompletion());
    round.layer["load.offered"] += static_cast<double>(offered);
    round.layer["load.completed"] += static_cast<double>(completed);
    slo->rollTo(drv->lastCompletion());
    const std::string key = std::string("load.") + p.key;
    round.layer[key + ".p50_us"] = slo->p50Us();
    round.layer[key + ".p99_us"] = slo->p99Us();

    recordQueue(round, bed->eventq());
    recordLayers(round, exportRegistry(round));
    HostTracer::Scope span("platform", "testbed-dtor");
    gen.reset();
    bed.reset();
}

} // namespace

Round
runServingNet(const RoundConfig &cfg)
{
    Round round;
    std::uint32_t index = 0;
    for (const Point &p : kPoints)
        runPoint(p, index++, cfg, round);
    return round;
}

} // namespace simbench
