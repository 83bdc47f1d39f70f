/**
 * @file
 * Parallel simulation scaling: events/sec vs worker thread count.
 *
 * Two Enzian machines (four timing domains) share one conservative
 * domain scheduler and run a fig06-style bidirectional ECI workload:
 * each machine's CPU streams cached writes into FPGA-homed lines
 * while its FPGA streams uncached reads of CPU memory, with a fixed
 * number of transfers in flight per direction. The identical workload
 * runs at 1, 2 and 4 threads; simulated end time and event count must
 * match bit-for-bit (conservative PDES is deterministic), only wall
 * time may differ. Emits BENCH_parallel_scaling.json with events/sec
 * per thread count and the t2/t4 speedups the CI floor guards.
 *
 * A second section A/B-tests no-sends-before promises on a
 * quiescent-heavy ring: with promises the scheduler stretches epochs
 * over the quiet spans, without them every epoch is one lookahead.
 *
 * Note: speedups here reflect the host the bench runs on; on a
 * single-core container every thread count measures ~1x.
 */

#include "bench_common.hh"

#include <chrono>

#include "sim/domain_scheduler.hh"

using namespace enzian;
using namespace enzian::bench;

namespace {

constexpr std::uint32_t kOpsPerDirection = 60000;
constexpr std::uint32_t kInflight = 512;
constexpr std::uint32_t kPoolLines = 4096;

struct RunResult
{
    double wallMs = 0.0;
    double barrierMs = 0.0;
    std::uint64_t events = 0;
    Tick simEnd = 0;
    std::size_t domains = 0;
};

/**
 * One self-reissuing direction of traffic. All bookkeeping lives in
 * the domain the completions fire on (CPU domain for cpuRemote ops,
 * FPGA domain for fpgaRemote ops), so no state crosses threads.
 */
struct Direction
{
    std::uint32_t issued = 0;
    std::uint32_t completed = 0;
    std::function<void()> issue;
};

void
startTraffic(platform::EnzianMachine &m, Direction &cpu_dir,
             Direction &fpga_dir)
{
    static std::vector<std::uint8_t> payload(cache::lineSize, 0xa5);

    cpu_dir.issue = [&m, &cpu_dir]() {
        if (cpu_dir.issued >= kOpsPerDirection)
            return;
        const std::uint32_t i = cpu_dir.issued++ % kPoolLines;
        const Addr line = mem::AddressMap::fpgaDramBase +
                          static_cast<Addr>(i) * cache::lineSize;
        m.cpuRemote().writeLine(line, payload.data(),
                                [&cpu_dir](Tick) {
                                    ++cpu_dir.completed;
                                    cpu_dir.issue();
                                });
    };
    fpga_dir.issue = [&m, &fpga_dir]() {
        if (fpga_dir.issued >= kOpsPerDirection)
            return;
        const std::uint32_t i = fpga_dir.issued++ % kPoolLines;
        const Addr line = static_cast<Addr>(i) * cache::lineSize;
        m.fpgaRemote().readLineUncached(line, nullptr,
                                        [&fpga_dir](Tick) {
                                            ++fpga_dir.completed;
                                            fpga_dir.issue();
                                        });
    };
    for (std::uint32_t i = 0; i < kInflight; ++i) {
        cpu_dir.issue();
        fpga_dir.issue();
    }
}

RunResult
runAt(std::uint32_t threads)
{
    auto cfg = platform::enzianDefaultConfig();
    // Deep request pipelining: more live transactions per epoch means
    // more work between barriers, which is what the threads share.
    cfg.remote_agent.max_outstanding = kInflight;
    const Tick lookahead = eci::EciLink::minCrossLatency(cfg.link);
    sim::DomainScheduler sched("par.sched", lookahead, threads);

    cfg.shared_scheduler = &sched;
    cfg.name = "par0";
    auto m0 = makeBenchMachine(cfg);
    cfg.name = "par1";
    auto m1 = makeBenchMachine(cfg);

    Direction dirs[4];
    startTraffic(*m0, dirs[0], dirs[1]);
    startTraffic(*m1, dirs[2], dirs[3]);

    const auto t0 = std::chrono::steady_clock::now();
    sched.run();
    const auto t1 = std::chrono::steady_clock::now();

    for (const auto &d : dirs) {
        if (d.completed != kOpsPerDirection)
            fatal("scaling bench: %u of %u transfers completed",
                  d.completed, kOpsPerDirection);
    }
    RunResult r;
    r.wallMs = std::chrono::duration<double, std::milli>(t1 - t0)
                   .count();
    r.barrierMs = sched.barrierWallNs() / 1e6;
    r.events = sched.eventsExecuted();
    r.simEnd = sched.now();
    r.domains = sched.domainCount();
    return r;
}

// --- with vs without promises on a quiescent-heavy ring ------------

constexpr Tick kQLookahead = 100;
constexpr int kQDomains = 4;
constexpr int kQRounds = 60;
constexpr Tick kQPeriod = 12800; ///< ticks between cross sends
constexpr Tick kQStep = 16;      ///< polling-event spacing

struct QuiescentResult
{
    double wallMs = 0.0;
    std::uint64_t events = 0;
    std::uint64_t epochs = 0;
    std::uint64_t grows = 0;
    std::vector<Tick> deliveries;
};

/**
 * A ring of domains running continuous cycle-driven local work
 * (polling events every few ticks) with one cross-domain send per
 * period — the workload shape where lockstep epochs pay a barrier
 * every lookahead for nothing. With @p promises each period opens
 * with a no-sends promise up to its send; without, the same event
 * runs and promises nothing. The simulation is identical in both
 * arms; only the epoch schedule (and with it the barrier count) may
 * differ.
 */
QuiescentResult
runQuiescent(bool promises, std::uint32_t threads)
{
    sim::DomainScheduler sched(format("quiesce_%s_t%u",
                                      promises ? "p" : "n", threads),
                               kQLookahead, threads);
    std::vector<sim::TimingDomain *> doms;
    std::vector<sim::CrossDomainChannel *> chans;
    for (int d = 0; d < kQDomains; ++d)
        doms.push_back(&sched.addDomain(format("q%d", d)));
    for (int d = 0; d < kQDomains; ++d)
        chans.push_back(
            &sched.channel(*doms[d], *doms[(d + 1) % kQDomains]));

    // Per-destination-domain delivery traces: single writer each.
    std::vector<std::vector<Tick>> trace(kQDomains);
    for (int d = 0; d < kQDomains; ++d) {
        EventQueue &q = doms[d]->queue();
        for (int r = 0; r < kQRounds; ++r) {
            const Tick base = static_cast<Tick>(r) * kQPeriod;
            const Tick send_at = base + kQPeriod - 2 * kQLookahead;
            q.schedule(base, [&, d, send_at, promises]() {
                if (promises)
                    doms[d]->promiseNoSendsBefore(send_at);
            });
            for (Tick t = kQStep; base + t < send_at; t += kQStep)
                q.schedule(base + t, []() {});
            q.schedule(send_at, [&, d]() {
                const int to = (d + 1) % kQDomains;
                chans[d]->push(doms[d]->queue().now() + kQLookahead,
                               [&, to]() {
                                   trace[to].push_back(
                                       doms[to]->queue().now());
                               });
            });
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    sched.run();
    const auto t1 = std::chrono::steady_clock::now();

    QuiescentResult r;
    r.wallMs = std::chrono::duration<double, std::milli>(t1 - t0)
                   .count();
    r.events = sched.eventsExecuted();
    r.epochs = sched.epochs();
    r.grows = sched.adaptiveGrows();
    for (const auto &t : trace)
        r.deliveries.insert(r.deliveries.end(), t.begin(), t.end());
    return r;
}

} // namespace

int
main()
{
    header("Parallel scaling: shared-scheduler ECI workload");
    BenchReport rep("parallel_scaling");

    const std::uint32_t counts[] = {1, 2, 4};
    RunResult res[3];
    std::printf("%8s %14s %12s %12s %12s\n", "threads", "events",
                "wall_ms", "barrier_ms", "events/s");
    for (int i = 0; i < 3; ++i) {
        res[i] = runAt(counts[i]);
        const double eps = res[i].events / (res[i].wallMs / 1e3);
        std::printf("%8u %14llu %12.1f %12.1f %12.3g\n", counts[i],
                    static_cast<unsigned long long>(res[i].events),
                    res[i].wallMs, res[i].barrierMs, eps);
        rep.add(format("eps_t%u", counts[i]), eps);
        rep.add(format("wall_ms_t%u", counts[i]), res[i].wallMs);
        rep.add(format("barrier_ms_t%u", counts[i]), res[i].barrierMs);
    }
    rep.add("domains", static_cast<double>(res[0].domains));
    // Determinism: the same simulation must have happened each time.
    for (int i = 1; i < 3; ++i) {
        if (res[i].events != res[0].events ||
            res[i].simEnd != res[0].simEnd) {
            fatal("scaling bench diverged at %u threads: %llu events "
                  "@ %llu vs %llu @ %llu",
                  counts[i],
                  static_cast<unsigned long long>(res[i].events),
                  static_cast<unsigned long long>(res[i].simEnd),
                  static_cast<unsigned long long>(res[0].events),
                  static_cast<unsigned long long>(res[0].simEnd));
        }
    }
    rep.add("events_total", static_cast<double>(res[0].events));
    rep.add("speedup_t2", res[0].wallMs / res[1].wallMs);
    rep.add("speedup_t4", res[0].wallMs / res[2].wallMs);
    std::printf("\nspeedup: t2 %.2fx, t4 %.2fx (identical simulation: "
                "%llu events to t=%llu at every thread count)\n",
                res[0].wallMs / res[1].wallMs,
                res[0].wallMs / res[2].wallMs,
                static_cast<unsigned long long>(res[0].events),
                static_cast<unsigned long long>(res[0].simEnd));

    // Promise A/B on the quiescent-heavy ring. At 1 thread the gain
    // isolates coordinator barrier work; at 4 threads it includes the
    // epoch handshake the grown epochs eliminate. The metric keys keep
    // their names: "fixed" is the no-promise arm (every epoch one
    // lookahead), "adaptive" the arm with promises.
    header("Epoch growth: quiescent-heavy promise A/B");
    std::printf("%8s %12s %12s %12s %10s\n", "threads", "promises",
                "epochs", "wall_ms", "grows");
    QuiescentResult base1;
    for (const std::uint32_t t : {1u, 4u}) {
        const QuiescentResult plain = runQuiescent(false, t);
        const QuiescentResult promised = runQuiescent(true, t);
        if (plain.deliveries != promised.deliveries ||
            plain.events != promised.events ||
            (t > 1 && plain.deliveries != base1.deliveries)) {
            fatal("promise A/B diverged at %u threads: %llu events "
                  "/ %zu deliveries vs %llu / %zu",
                  t, static_cast<unsigned long long>(plain.events),
                  plain.deliveries.size(),
                  static_cast<unsigned long long>(promised.events),
                  promised.deliveries.size());
        }
        if (promised.grows == 0)
            fatal("promise A/B: no epoch ever grew");
        if (t == 1)
            base1 = plain;
        const double gain = plain.wallMs / promised.wallMs;
        std::printf("%8u %12s %12llu %12.1f %10llu\n", t, "without",
                    static_cast<unsigned long long>(plain.epochs),
                    plain.wallMs,
                    static_cast<unsigned long long>(plain.grows));
        std::printf("%8u %12s %12llu %12.1f %10llu\n", t, "with",
                    static_cast<unsigned long long>(promised.epochs),
                    promised.wallMs,
                    static_cast<unsigned long long>(promised.grows));
        std::printf("promise gain at %u threads: %.2fx wall, %.1fx "
                    "fewer epochs (identical %llu-event simulation)\n",
                    t, gain,
                    static_cast<double>(plain.epochs) / promised.epochs,
                    static_cast<unsigned long long>(plain.events));
        rep.add(format("epochs_fixed_t%u", t),
                static_cast<double>(plain.epochs));
        rep.add(format("epochs_adaptive_t%u", t),
                static_cast<double>(promised.epochs));
        rep.add(format("wall_ms_fixed_t%u", t), plain.wallMs);
        rep.add(format("wall_ms_adaptive_t%u", t), promised.wallMs);
        rep.add(format("adaptive_gain_t%u", t), gain);
        // Deterministic (host-independent) floor anchor: how many
        // barriers the promises provably eliminate.
        rep.add(format("epoch_reduction_t%u", t),
                static_cast<double>(plain.epochs) / promised.epochs);
    }
    return 0;
}
