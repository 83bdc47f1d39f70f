/**
 * @file
 * Tests for the conservative parallel simulation layer: cross-domain
 * channel merge ordering, same-tick tie order independent of barrier
 * placement, epoch-boundary delivery, stale cancels
 * across domains, thread-count determinism of the scheduler and of a
 * full machine, and the chaos-scenario registry byte-compare.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "eci/eci_link.hh"
#include "fault/chaos_scenario.hh"
#include "fault/fault_plan.hh"
#include "platform/enzian_machine.hh"
#include "platform/params.hh"
#include "sim/cross_domain_channel.hh"
#include "sim/domain_scheduler.hh"

namespace enzian {
namespace {

constexpr Tick kLookahead = 100;

TEST(CrossDomainChannel, DeterministicSameTickMerge)
{
    // Two source domains deliver into one destination at the same
    // tick; the barrier merge must order them by source domain id no
    // matter in which order the channels were created.
    sim::DomainScheduler sched("t.merge", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &c = sched.addDomain("c");
    // Deliberately create the higher-id source's channel first.
    auto &fromC = sched.channel(c, a);
    auto &fromB = sched.channel(b, a);

    std::vector<std::string> order;
    b.queue().schedule(10, [&]() {
        fromB.push(10 + kLookahead, [&]() { order.push_back("b"); });
    });
    c.queue().schedule(10, [&]() {
        fromC.push(10 + kLookahead, [&]() { order.push_back("c"); });
    });
    sched.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "b");
    EXPECT_EQ(order[1], "c");
}

TEST(CrossDomainChannel, EpochBoundaryDelivery)
{
    // A message sent at tick t with the minimum legal delivery tick
    // t + L lands exactly one epoch later, at its timestamp.
    sim::DomainScheduler sched("t.boundary", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);

    Tick delivered = 0;
    Tick deliveredLate = 0;
    a.queue().schedule(0, [&]() {
        ab.push(kLookahead, [&]() { delivered = b.queue().now(); });
        ab.push(kLookahead + 5,
                [&]() { deliveredLate = b.queue().now(); });
    });
    sched.run();
    EXPECT_EQ(delivered, kLookahead);
    EXPECT_EQ(deliveredLate, kLookahead + 5);
    EXPECT_EQ(ab.messagesForwarded(), 2u);
}

TEST(CrossDomainChannel, StaleCancelAcrossDomainsIsNoOp)
{
    // Domain a asks to cancel an event in domain b that has already
    // run by the time the cancellation crosses the lookahead gap;
    // the cancel must be an exact no-op.
    sim::DomainScheduler sched("t.cancel", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);

    bool ran = false;
    const EventId id = b.queue().schedule(50, [&]() { ran = true; });
    a.queue().schedule(0, [&]() {
        // Delivered at >= 100 > 50: the target event already fired.
        ab.push(kLookahead, [&, id]() { b.queue().cancel(id); });
    });
    sched.run();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(b.queue().empty());
    EXPECT_EQ(b.queue().eventsExecuted(), 2u);
}

TEST(CrossDomainChannel, LookaheadViolationDies)
{
    sim::DomainScheduler sched("t.violate", kLookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);
    EXPECT_DEATH(ab.push(kLookahead - 1, []() {}), "lookahead");
}

/** Ping-pong across two domains; returns the per-hop tick trace. */
std::vector<Tick>
pingPongTrace(std::uint32_t threads, int rounds)
{
    sim::DomainScheduler sched("t.pp", kLookahead, threads);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);
    auto &ba = sched.channel(b, a);

    // Traces are per-domain (no cross-thread sharing) and merged
    // deterministically after the run.
    std::vector<Tick> atrace, btrace;
    std::function<void(int)> hopA = [&](int left) {
        atrace.push_back(a.queue().now());
        if (left > 0) {
            ab.push(a.queue().now() + kLookahead,
                    [&, left]() { /* b side */
                                  btrace.push_back(b.queue().now());
                                  if (left > 1) {
                                      ba.push(b.queue().now() +
                                                  kLookahead,
                                              [&, left]() {
                                                  hopA(left - 2);
                                              });
                                  }
                    });
        }
    };
    a.queue().schedule(7, [&]() { hopA(rounds); });
    sched.run();

    std::vector<Tick> merged = atrace;
    merged.insert(merged.end(), btrace.begin(), btrace.end());
    merged.push_back(sched.eventsExecuted());
    merged.push_back(sched.epochs());
    return merged;
}

TEST(DomainScheduler, ThreadCountDeterminism)
{
    const auto t1 = pingPongTrace(1, 40);
    const auto t2 = pingPongTrace(2, 40);
    const auto t4 = pingPongTrace(4, 40);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t4);
    EXPECT_GT(t1.size(), 40u);
}

/**
 * Order of two same-tick events in domain b: a delivery from a, pushed
 * at tick 0, and a local event b schedules at tick 60. With lookahead
 * 50 a barrier falls between the two schedule calls; with 100 none
 * does.
 */
std::vector<std::string>
sameTickOrder(Tick lookahead)
{
    sim::DomainScheduler sched("t.tie", lookahead, 1);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    auto &ab = sched.channel(a, b);
    std::vector<std::string> order;
    a.queue().schedule(0, [&]() {
        ab.push(1000, [&]() { order.push_back("delivery"); });
    });
    b.queue().schedule(60, [&]() {
        b.queue().schedule(1000, [&]() { order.push_back("local"); });
    });
    sched.run();
    return order;
}

TEST(DomainScheduler, TieOrderIndependentOfLookahead)
{
    // A delivery's same-tick position is fixed by its sender, not by
    // which barrier inserted it: it runs before local events.
    const auto short_epochs = sameTickOrder(50);
    EXPECT_EQ(short_epochs, sameTickOrder(100));
    EXPECT_EQ(short_epochs,
              (std::vector<std::string>{"delivery", "local"}));
}

TEST(DomainScheduler, RunUntilAdvancesAllDomains)
{
    sim::DomainScheduler sched("t.until", kLookahead, 2);
    auto &a = sched.addDomain("a");
    auto &b = sched.addDomain("b");
    int fired = 0;
    a.queue().schedule(30, [&]() { ++fired; });
    b.queue().schedule(500, [&]() { ++fired; });
    sched.runUntil(200);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(a.queue().now(), 200u);
    EXPECT_EQ(b.queue().now(), 200u);
    EXPECT_EQ(sched.now(), 200u);
    sched.run();
    EXPECT_EQ(fired, 2);
}

/** Completion tick traces of a small bidirectional ECI workload. */
struct MachineTrace
{
    std::vector<Tick> cpu, fpga;
    std::uint64_t events = 0;

    bool operator==(const MachineTrace &o) const
    {
        return cpu == o.cpu && fpga == o.fpga && events == o.events;
    }
};

MachineTrace
machineWorkload(std::uint32_t threads)
{
    platform::EnzianMachine::Config mc;
    mc.cpu_dram_bytes = 32ull << 20;
    mc.fpga_dram_bytes = 32ull << 20;
    mc.cores = 2;
    mc.threads = threads;
    mc.name = "tpar";
    platform::EnzianMachine m(mc);

    MachineTrace tr;
    std::vector<std::uint8_t> buf(cache::lineSize, 0x5a);
    for (std::uint32_t i = 0; i < 24; ++i) {
        const Addr fline = mem::AddressMap::fpgaDramBase +
                           static_cast<Addr>(i) * cache::lineSize;
        m.cpuRemote().writeLine(fline, buf.data(), [&tr](Tick t) {
            tr.cpu.push_back(t);
        });
        const Addr cline = static_cast<Addr>(i) * cache::lineSize;
        m.fpgaRemote().readLineUncached(cline, nullptr, [&tr](Tick t) {
            tr.fpga.push_back(t);
        });
    }
    tr.events = m.run();
    // Read-back through the home agent exercises the snoop path.
    // Issued at a fixed absolute tick: after a run a domain queue
    // sits at its last epoch end, not at the last event, so "now"
    // differs from the legacy machine even though the simulation was
    // identical.
    const Tick phase2 = units::us(5.0);
    for (std::uint32_t i = 0; i < 24; ++i) {
        const Addr fline = mem::AddressMap::fpgaDramBase +
                           static_cast<Addr>(i) * cache::lineSize;
        m.fpgaEventq().schedule(phase2, [&m, &tr, fline]() {
            m.fpgaHome().localRead(fline, nullptr, [&tr](Tick t) {
                tr.fpga.push_back(t);
            });
        });
    }
    tr.events += m.run();
    return tr;
}

TEST(ParallelMachine, MatchesLegacyMachine)
{
    // The domain-mode machine (threads=1) must reproduce the classic
    // single-queue machine's simulation exactly: same completion
    // ticks, same event count.
    const auto legacy = machineWorkload(0);
    const auto domain1 = machineWorkload(1);
    EXPECT_EQ(legacy.cpu, domain1.cpu);
    EXPECT_EQ(legacy.fpga, domain1.fpga);
    EXPECT_EQ(legacy.events, domain1.events);
    ASSERT_EQ(legacy.cpu.size(), 24u);
    ASSERT_EQ(legacy.fpga.size(), 48u);
}

TEST(ParallelMachine, ThreadCountInvariant)
{
    const auto domain1 = machineWorkload(1);
    const auto domain4 = machineWorkload(4);
    EXPECT_EQ(domain1, domain4);
}

fault::FaultPlan
lossyPlan()
{
    fault::FaultPlan plan;
    plan.seed = 1234;
    fault::FaultSpec drop;
    drop.kind = fault::FaultKind::EciMsgDrop;
    drop.prob = 0.02;
    plan.faults.push_back(drop);
    fault::FaultSpec corrupt;
    corrupt.kind = fault::FaultKind::EciMsgCorrupt;
    corrupt.prob = 0.01;
    plan.faults.push_back(corrupt);
    return plan;
}

/**
 * Byte-compare two chaos runs of one scenario at 1 and 4 threads;
 * returns the 4-thread result.
 */
fault::ChaosResult
expectChaosIdenticalAt1And4(const fault::FaultPlan &plan,
                            fault::ChaosConfig cfg)
{
    cfg.threads = 1;
    const auto r1 = fault::runChaos(plan, cfg);
    cfg.threads = 4;
    const auto r4 = fault::runChaos(plan, cfg);
    EXPECT_TRUE(r1.ok) << (r1.violations.empty()
                               ? std::string()
                               : r1.violations.front());
    EXPECT_TRUE(r4.ok);
    EXPECT_EQ(r1.opsIssued, r4.opsIssued);
    EXPECT_EQ(r1.opsCompleted, r4.opsCompleted);
    EXPECT_EQ(r1.faultsInjected, r4.faultsInjected);
    EXPECT_GT(r1.faultsInjected, 0u);
    // The whole observable state of the simulation, byte for byte.
    EXPECT_EQ(r1.registryJson, r4.registryJson);
    EXPECT_EQ(r1.report, r4.report);
    return r4;
}

TEST(ParallelChaos, RegistryBitIdenticalAcrossThreadCounts)
{
    fault::ChaosConfig cfg;
    cfg.seed = 7;
    cfg.ops = 200;
    cfg.lines = 16;
    expectChaosIdenticalAt1And4(lossyPlan(), cfg);
}

TEST(ParallelChaos, EveryFaultKindByteIdenticalAcrossThreadCounts)
{
    // One spec of each kind, with every subsystem it targets attached:
    // ECI faults on both domains, DRAM ECC on each node's memory,
    // TCP/RDMA on the FPGA domain and rail glitches on the BMC. The
    // net windows cover most of the TCP transfer, which runs from 2 us
    // to past 0.4 ms (slowed by the glitch's FPGA power cycle).
    std::istringstream spec(
        "seed 77\n"
        "fault kind=eci-msg-drop prob=0.02\n"
        "fault kind=eci-msg-corrupt prob=0.01\n"
        "fault kind=eci-lane-fail param=4 target=0 at_us=20 "
        "until_us=45\n"
        "fault kind=eci-link-flap param=3 target=1 at_us=30\n"
        "fault kind=dram-ecc-correctable prob=0.05 target=0 at_us=5 "
        "until_us=60\n"
        "fault kind=dram-ecc-uncorrectable prob=0.02 target=1 "
        "at_us=5 until_us=60\n"
        "fault kind=net-loss prob=0.05 at_us=1 until_us=400\n"
        "fault kind=net-reorder prob=0.05 param=10 at_us=1 "
        "until_us=400\n"
        "fault kind=rdma-drop prob=0.1 at_us=1 until_us=50\n"
        "fault kind=bmc-rail-glitch target=1 at_us=10\n");
    std::string err;
    const auto plan = fault::FaultPlan::parse(spec, err);
    ASSERT_TRUE(plan) << err;
    ASSERT_EQ(plan->faults.size(), fault::faultKindCount);

    fault::ChaosConfig cfg;
    cfg.seed = 77;
    cfg.ops = 200;
    cfg.lines = 16;
    cfg.with_bmc = true;
    const auto r = expectChaosIdenticalAt1And4(*plan, cfg);

    // The report lists exactly the kinds that injected at least once.
    for (std::size_t k = 0; k < fault::faultKindCount; ++k) {
        const std::string kind =
            fault::toString(static_cast<fault::FaultKind>(k));
        EXPECT_NE(r.report.find("  " + kind + ": "), std::string::npos)
            << kind << " never injected:\n"
            << r.report;
    }
    // The TCP side traffic is cut into wire-MTU segments, so the loss
    // and reorder windows hit it and recovery runs.
    unsigned long long dropped = 0, reordered = 0, retransmits = 0;
    const auto tcp = r.report.find("  tcp: ");
    ASSERT_NE(tcp, std::string::npos) << r.report;
    ASSERT_EQ(std::sscanf(r.report.c_str() + tcp,
                          "  tcp: %llu dropped, %llu reordered, %llu "
                          "retransmits",
                          &dropped, &reordered, &retransmits),
              3)
        << r.report;
    EXPECT_GT(dropped, 0u) << r.report;
    EXPECT_GT(reordered, 0u) << r.report;
    EXPECT_GT(retransmits, 0u) << r.report;
}

} // namespace
} // namespace enzian
