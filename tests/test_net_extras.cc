/**
 * @file
 * Additional network-substrate coverage: MSS/window edges, multiple
 * stack pairs sharing a switch, ack accounting, link delivery order
 * and switch egress contention on one queue and under domains.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/switch.hh"
#include "net/tcp_stack.hh"
#include "platform/params.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::net {
namespace {

Switch::Config
switchConfig()
{
    Switch::Config cfg;
    cfg.port = platform::params::eth100Config();
    return cfg;
}

TEST(TcpEdge, SingleByteStream)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    const auto id = a.connect(b);
    bool done = false;
    a.send(id, 1, [&](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(b.bytesReceived(id), 1u);
}

TEST(TcpEdge, TransferNotMultipleOfMss)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    const auto id = a.connect(b);
    const std::uint64_t n = 3 * a.config().mss + 17;
    bool done = false;
    a.send(id, n, [&](Tick) { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(b.bytesReceived(id), n);
    EXPECT_EQ(a.segmentsSent(), 4u);
}

TEST(TcpEdge, BackToBackSendsOnOneFlowStayOrdered)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    const auto id = a.connect(b);
    std::vector<Tick> completions;
    for (int i = 0; i < 5; ++i)
        a.send(id, 10000, [&](Tick t) { completions.push_back(t); });
    eq.run();
    ASSERT_EQ(completions.size(), 5u);
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_GE(completions[i], completions[i - 1]);
    EXPECT_EQ(b.bytesReceived(id), 50000u);
}

TEST(TcpEdge, TwoStackPairsShareOneSwitch)
{
    EventQueue eq;
    Switch sw("sw", eq, 4, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    TcpStack c("c", eq, sw, hostTcpConfig(2));
    TcpStack d("d", eq, sw, hostTcpConfig(3));
    const auto ab = a.connect(b);
    const auto cd = c.connect(d);
    int done = 0;
    a.send(ab, 1 << 20, [&](Tick) { ++done; });
    c.send(cd, 1 << 20, [&](Tick) { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(b.bytesReceived(ab), 1u << 20);
    EXPECT_EQ(d.bytesReceived(cd), 1u << 20);
}

TEST(TcpEdge, ReceiveCallbackSeesCumulativeBytes)
{
    EventQueue eq;
    Switch sw("sw", eq, 2, switchConfig());
    TcpStack a("a", eq, sw, fpgaTcpConfig(0, 250e6));
    TcpStack b("b", eq, sw, fpgaTcpConfig(1, 250e6));
    const auto id = a.connect(b);
    std::uint64_t delivered = 0;
    b.setReceiveCallback([&](std::uint32_t f, std::uint64_t bytes) {
        delivered += bytes;
        EXPECT_LE(delivered, b.bytesReceived(f) + bytes);
    });
    a.send(id, 100000, [](Tick) {});
    eq.run();
    EXPECT_EQ(delivered, 100000u);
}

TEST(SwitchEdge, ManyPortsAllToAll)
{
    EventQueue eq;
    Switch sw("sw", eq, 6, switchConfig());
    int received[6] = {};
    for (std::uint32_t p = 0; p < 6; ++p) {
        sw.setEndpoint(p, [&received, p](Tick, std::uint64_t,
                                         std::uint64_t) {
            ++received[p];
        });
    }
    for (std::uint32_t s = 0; s < 6; ++s)
        for (std::uint32_t d = 0; d < 6; ++d)
            if (s != d)
                sw.sendFrom(s, 256, Switch::makeTag(d, 0));
    eq.run();
    for (int p = 0; p < 6; ++p)
        EXPECT_EQ(received[p], 5);
}

/** Serializer time of one message of @p payload bytes on @p link. */
Tick
streamTicks(const EthernetLink &link, std::uint64_t payload)
{
    const std::uint32_t mtu = link.config().mtu;
    const std::uint64_t frames = (payload + mtu - 1) / mtu;
    return units::transferTicks(payload + frames * frameOverheadBytes,
                                link.lineRate());
}

TEST(EthernetFifo, BurstArrivesInOrderAtSerializerTicks)
{
    EventQueue eq;
    EthernetLink link("link", eq, platform::params::eth100Config());
    const Tick latency = units::ns(link.config().latency_ns);
    std::vector<std::pair<Tick, std::uint64_t>> got;
    std::size_t maxPending = 0;
    link.setReceiver(1, [&](Tick when, std::uint64_t, std::uint64_t tag) {
        EXPECT_EQ(when, eq.now());
        got.emplace_back(when, tag);
        maxPending = std::max(maxPending, eq.pendingCount());
    });

    std::vector<Tick> expect;
    Tick busy = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t payload = 64 + 97 * i; // mixed frame sizes
        busy += streamTicks(link, payload);
        expect.push_back(busy + latency);
        EXPECT_EQ(link.send(0, payload, i), expect.back());
        maxPending = std::max(maxPending, eq.pendingCount());
    }
    eq.run();

    ASSERT_EQ(got.size(), 64u);
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(got[i].second, i);
        EXPECT_EQ(got[i].first, expect[i]);
    }
    // One busy direction holds one queue entry, not one per frame.
    EXPECT_LE(maxPending, 1u);
}

TEST(EthernetFifo, ReentrantSendStaysOrdered)
{
    EventQueue eq;
    EthernetLink link("link", eq, platform::params::eth100Config());
    std::vector<Tick> sentFor(12, 0);
    std::vector<std::uint64_t> tags;
    Tick last = 0;
    // Every arrival of tag t sends t + 4 again from side 0, so the
    // handler appends to the very direction being drained while
    // frames still queue behind it.
    link.setReceiver(1, [&](Tick when, std::uint64_t, std::uint64_t tag) {
        EXPECT_EQ(when, sentFor[tag]);
        EXPECT_GT(when, last);
        last = when;
        tags.push_back(tag);
        if (tag + 4 < sentFor.size())
            sentFor[tag + 4] = link.send(0, 1500, tag + 4);
    });
    for (std::uint64_t t = 0; t < 4; ++t)
        sentFor[t] = link.send(0, 1500, t);
    eq.run();

    ASSERT_EQ(tags.size(), 12u);
    for (std::uint64_t i = 0; i < tags.size(); ++i)
        EXPECT_EQ(tags[i], i);

    // A one-frame ping-pong empties the queue before each re-send.
    std::uint32_t hops = 0;
    link.setReceiver(1, [&](Tick when, std::uint64_t, std::uint64_t) {
        EXPECT_GT(when, last);
        last = when;
        if (++hops < 5)
            link.send(0, 64, hops);
    });
    link.send(0, 64, 0);
    eq.run();
    EXPECT_EQ(hops, 5u);
}

/**
 * Port 0 sends a frame to port 2 behind a long ingress backlog to
 * port 1; port 1's later frame to port 2 reaches the switch first.
 * Egress on port 2 follows switch arrival, and each egress starts at
 * arrival + forward delay or when the port frees, whichever is later.
 * With @p threads > 0 the switch runs under a DomainScheduler.
 */
void
checkSwitchContention(std::uint32_t threads)
{
    const Switch::Config cfg = switchConfig();
    constexpr std::uint64_t backlog = 16384, late = 1500, early = 9000;

    std::unique_ptr<sim::DomainScheduler> sched;
    std::unique_ptr<EventQueue> ownEq;
    std::vector<sim::TimingDomain *> portDomains;
    EventQueue *swEq = nullptr;
    if (threads > 0) {
        sched = std::make_unique<sim::DomainScheduler>(
            "sched", Switch::minCrossLatency(cfg, 3), threads);
        swEq = &sched->addDomain("net").queue();
        for (int p = 0; p < 3; ++p) {
            portDomains.push_back(
                &sched->addDomain("port" + std::to_string(p)));
        }
    } else {
        ownEq = std::make_unique<EventQueue>();
        swEq = ownEq.get();
    }
    Switch sw("sw", *swEq, 3, cfg);
    if (sched)
        sw.bindDomains(*sched, sched->domain(0), portDomains);

    std::vector<std::pair<Tick, std::uint64_t>> got;
    sw.setEndpoint(0, [](Tick, std::uint64_t, std::uint64_t) {});
    sw.setEndpoint(1, [](Tick, std::uint64_t, std::uint64_t) {});
    sw.setEndpoint(2, [&](Tick when, std::uint64_t, std::uint64_t tag) {
        got.emplace_back(when, Switch::userOf(tag));
    });
    // Each port's sends run in its own domain under the scheduler.
    EventQueue &q0 = sched ? portDomains[0]->queue() : *swEq;
    EventQueue &q1 = sched ? portDomains[1]->queue() : *swEq;
    q0.schedule(0, [&sw] {
        sw.sendFrom(0, backlog, Switch::makeTag(1, 0));
        sw.sendFrom(0, late, Switch::makeTag(2, 1));
    });
    q1.schedule(0, [&sw] { sw.sendFrom(1, early, Switch::makeTag(2, 2)); });
    if (sched)
        sched->run();
    else
        swEq->run();

    const EthernetLink &link = sw.port(2);
    const Tick latency = units::ns(cfg.port.latency_ns);
    const Tick fwd = units::ns(cfg.forward_ns);
    const Tick arriveEarly = streamTicks(link, early) + latency;
    const Tick arriveLate =
        streamTicks(link, backlog) + streamTicks(link, late) + latency;
    ASSERT_LT(arriveEarly, arriveLate);
    const Tick startEarly = arriveEarly + fwd;
    const Tick freeAt = startEarly + streamTicks(link, early);
    // The sizes make the late frame wait for the egress serializer.
    ASSERT_GT(freeAt, arriveLate + fwd);
    const Tick startLate = std::max(arriveLate + fwd, freeAt);

    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].second, 2u);
    EXPECT_EQ(got[0].first, startEarly + streamTicks(link, early) + latency);
    EXPECT_EQ(got[1].second, 1u);
    EXPECT_EQ(got[1].first, startLate + streamTicks(link, late) + latency);
}

TEST(SwitchEdge, EgressFollowsSwitchArrivalOnOneQueue)
{
    checkSwitchContention(0);
}

TEST(SwitchEdge, EgressFollowsSwitchArrivalUnderDomainsT1)
{
    checkSwitchContention(1);
}

TEST(SwitchEdge, EgressFollowsSwitchArrivalUnderDomainsT4)
{
    checkSwitchContention(4);
}

TEST(SwitchEdgeDeathTest, TooFewPortsFatal)
{
    EventQueue eq;
    EXPECT_EXIT(Switch("bad", eq, 1, switchConfig()),
                ::testing::ExitedWithCode(1), "at least 2");
}

} // namespace
} // namespace enzian::net
