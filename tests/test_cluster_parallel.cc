/**
 * @file
 * Rack-scale tests: N-node clusters on the domain scheduler
 * (thread-count determinism down to the registry bytes, for the KV
 * store and for every cluster service), the replicated KV store
 * (read-your-writes, nearest-replica reads, recovery under RDMA
 * request drops), and regressions for the cluster-layer bug purge
 * (two servers in one process, switch tag overflow, out-of-bounds
 * pushdown predicates).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <sstream>

#include "base/rng.hh"
#include "cluster/disagg_memory.hh"
#include "cluster/eci_bridge.hh"
#include "cluster/enzian_cluster.hh"
#include "cluster/replicated_kv.hh"
#include "obs/registry.hh"

namespace enzian::cluster {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kValueBytes = 128;

std::vector<std::uint8_t>
patternFor(std::uint64_t key)
{
    std::vector<std::uint8_t> v(kValueBytes);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<std::uint8_t>(key * 41 + i);
    return v;
}

/** Completion-tick traces + registry bytes of a rack KV workload. */
struct RackRun
{
    std::vector<Tick> ticks;
    std::string registryJson;
    std::vector<std::vector<std::uint8_t>> values;
};

RackRun
rackKvWorkload(std::uint32_t threads)
{
    EnzianCluster::Config cfg;
    cfg.nodes = kNodes;
    cfg.threads = threads;
    EnzianCluster rack(cfg);

    ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1, 2};
    kcfg.value_bytes = kValueBytes;
    ReplicatedKv kv("rackkv", rack, kcfg);

    // Phase 1: every node puts its own keys. Completion callbacks run
    // in the issuing node's domain, so traces are per-node and merged
    // after the run.
    std::array<std::vector<Tick>, kNodes> trace;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
        for (std::uint64_t k = 0; k < 4; ++k) {
            const std::uint64_t key = n * 8 + k;
            const auto val = patternFor(key);
            kv.put(n, key, val.data(),
                   [&trace, n](Tick t) { trace[n].push_back(t); });
        }
    }
    rack.run();

    // Phase 2: every node reads a neighbour's key, issued at a fixed
    // absolute tick (after a run a domain queue sits at its epoch end,
    // so "now" is not comparable across modes).
    const Tick phase2 = units::us(1000.0);
    RackRun out;
    out.values.assign(kNodes, std::vector<std::uint8_t>(kValueBytes));
    for (std::uint32_t n = 0; n < kNodes; ++n) {
        rack.node(n).fpgaEventq().schedule(phase2, [&, n]() {
            const std::uint64_t key = ((n + 1) % kNodes) * 8;
            kv.get(n, key, out.values[n].data(),
                   [&trace, n](Tick t) { trace[n].push_back(t); });
        });
    }
    rack.run();

    for (const auto &t : trace)
        out.ticks.insert(out.ticks.end(), t.begin(), t.end());
    std::ostringstream os;
    obs::Registry::global().exportJson(os);
    out.registryJson = os.str();
    return out;
}

TEST(ClusterParallel, RegistryByteIdenticalAcrossThreadCounts)
{
    const auto r1 = rackKvWorkload(1);
    const auto r4 = rackKvWorkload(4);
    ASSERT_EQ(r1.ticks.size(), kNodes * 5u);
    EXPECT_EQ(r1.ticks, r4.ticks);
    // The whole observable state of the rack, byte for byte.
    EXPECT_FALSE(r1.registryJson.empty());
    EXPECT_EQ(r1.registryJson, r4.registryJson);
    EXPECT_EQ(r1.values, r4.values);
    for (std::uint32_t n = 0; n < kNodes; ++n)
        EXPECT_EQ(r1.values[n], patternFor(((n + 1) % kNodes) * 8));
}

/**
 * Every cluster service on one 4-node rack at once: a pcie-host KV
 * store (primary node 0, replica node 1), a disaggregated-memory
 * write + pushdown scan (server node 2, client node 3) and a bridged
 * read plus write-back (node 0 imports node 1's CPU memory). Traces
 * are kept per issuing domain and merged after the run.
 */
RackRun
servicesWorkload(std::uint32_t threads)
{
    EnzianCluster::Config cfg;
    cfg.nodes = kNodes;
    cfg.threads = threads;
    EnzianCluster rack(cfg);
    auto &a = rack.node(0);
    auto &b = rack.node(1);

    // KV stores serve on link 2 and clients issue on link 3; the
    // disagg pair uses link 0 and the bridge link 1.
    ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1};
    kcfg.placement = "pcie-host";
    kcfg.value_bytes = kValueBytes;
    ReplicatedKv kv("svckv", rack, kcfg);

    DisaggMemoryServer::Config scfg;
    scfg.port = rack.portOf(2, 0);
    scfg.region_size = 1ull << 20;
    DisaggMemoryServer srv("svcmem", rack.node(2), rack.network(), scfg);
    DisaggMemoryClient cli("svcdb", rack.node(3), rack.network(),
                           rack.portOf(3, 0), srv);

    const Addr window = mem::AddressMap::fpgaDramBase + (128ull << 20);
    EciBridgeTarget::Config tcfg;
    tcfg.port = rack.portOf(1, 1);
    EciBridgeTarget target("svcbt", b, rack.network(), tcfg);
    eci::DramLineSource fallback(a.fpgaMem(), a.map());
    EciBridgeSource::Config bcfg;
    bcfg.port = rack.portOf(0, 1);
    bcfg.window_base = window;
    bcfg.window_size = 16ull << 20;
    EciBridgeSource source("svcbs", a, rack.network(), fallback, target,
                           bcfg);
    a.fpgaHome().setLineSource(&source);

    RackRun out;
    out.values.assign(4, {});
    // [0] kv puts and remote gets (node 3), [1] local gets (node 1),
    // [2] disagg client (node 3), [3] bridge (node 0's CPU).
    std::array<std::vector<Tick>, 4> trace;

    for (std::uint64_t k = 0; k < 4; ++k) {
        const auto val = patternFor(k);
        kv.put(3, k, val.data(),
               [&trace](Tick t) { trace[0].push_back(t); });
    }

    constexpr std::uint32_t row = 16;
    std::vector<std::uint8_t> table(256 * row);
    for (std::uint64_t r = 0; r < 256; ++r)
        std::memcpy(&table[r * row], &r, 8);
    cli.write(0, table.data(), table.size(), [&](Tick t) {
        trace[2].push_back(t);
        Predicate pred;
        pred.op = FilterOp::Ge;
        pred.operand = 250;
        cli.scanFilter(0, row, 256, pred,
                       [&](Tick t2, std::vector<std::uint8_t> m,
                           std::uint64_t) {
                           trace[2].push_back(t2);
                           out.values[2] = std::move(m);
                       });
    });

    std::vector<std::uint8_t> line(cache::lineSize, 0x3c);
    b.cpuMem().store().write(0x2000, line.data(), line.size());
    out.values[3].resize(cache::lineSize);
    const std::vector<std::uint8_t> wb(cache::lineSize, 0x77);
    a.cpuRemote().readLine(window + 0x2000, out.values[3].data(),
                           [&](Tick t) {
        trace[3].push_back(t);
        a.cpuRemote().writeLine(window + 0x4000, wb.data(), [&](Tick t2) {
            trace[3].push_back(t2);
            a.cpuRemote().flushAll(
                [&](Tick t3) { trace[3].push_back(t3); });
        });
    });
    rack.run();

    // Gets once every put is durable: remote from node 3, local
    // through node 1's DMA engine.
    out.values[0].resize(kValueBytes);
    out.values[1].resize(kValueBytes);
    kv.get(3, 2, out.values[0].data(),
           [&trace](Tick t) { trace[0].push_back(t); });
    kv.get(1, 3, out.values[1].data(),
           [&trace](Tick t) { trace[1].push_back(t); });
    rack.run();

    std::vector<std::uint8_t> landed(cache::lineSize);
    b.cpuMem().store().read(0x4000, landed.data(), landed.size());
    EXPECT_EQ(landed, wb);
    for (const auto &t : trace)
        out.ticks.insert(out.ticks.end(), t.begin(), t.end());
    std::ostringstream os;
    obs::Registry::global().exportJson(os);
    out.registryJson = os.str();
    return out;
}

TEST(ClusterParallel, ServicesByteIdenticalAcrossThreadCounts)
{
    const auto r1 = servicesWorkload(1);
    const auto r4 = servicesWorkload(4);
    // 4 puts + 2 gets, write + scan, read + write + flush.
    ASSERT_EQ(r1.ticks.size(), 11u);
    EXPECT_EQ(r1.ticks, r4.ticks);
    EXPECT_EQ(r1.registryJson, r4.registryJson);
    EXPECT_EQ(r1.values, r4.values);
    EXPECT_EQ(r1.values[0], patternFor(2));
    EXPECT_EQ(r1.values[1], patternFor(3));
    ASSERT_EQ(r1.values[2].size(), 6u * 16);
    std::uint64_t first = 0;
    std::memcpy(&first, r1.values[2].data(), 8);
    EXPECT_EQ(first, 250u);
    EXPECT_EQ(r1.values[3], std::vector<std::uint8_t>(cache::lineSize,
                                                      0x3c));
}

TEST(ClusterParallel, LookaheadIsDerivedFromTopology)
{
    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    const Tick uniform = EnzianCluster::deriveLookahead(
        cfg, ClusterTopology::uniform(2, 4));

    // A topology with a long cable cannot lower the floor below the
    // intra-machine ECI path; a short one can.
    ClusterTopology fast = ClusterTopology::uniform(2, 4);
    fast.nodes[0].latency_ns = 1.0;
    const Tick floor_fast = EnzianCluster::deriveLookahead(cfg, fast);
    EXPECT_LE(floor_fast, uniform);
    EXPECT_EQ(floor_fast, units::ns(1.0));
}

TEST(ReplicatedKv, NearestReplicaReadsAndTopologyDistance)
{
    // Primary on a *far* node (5 us cable), replica on a near one:
    // reads from an unrelated node must pick the replica.
    ClusterTopology topo = ClusterTopology::uniform(3, 4);
    topo.nodes[0].latency_ns = 5000.0;
    EnzianCluster::Config cfg;
    cfg.topology = topo;
    EnzianCluster rack(cfg);

    ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1};
    kcfg.value_bytes = kValueBytes;
    ReplicatedKv kv("nearkv", rack, kcfg);

    EXPECT_EQ(kv.storeCount(), 2u);
    EXPECT_EQ(kv.nearestStore(1), 1u); // co-located replica
    EXPECT_EQ(kv.nearestStore(2), 1u); // replica beats the far primary

    const auto val = patternFor(7);
    bool put_done = false;
    kv.put(2, 7, val.data(), [&](Tick) { put_done = true; });
    rack.run();
    ASSERT_TRUE(put_done);
    EXPECT_EQ(kv.replicaAcks(), 2u);

    // Node 1 reads its own replica: no network at all.
    std::vector<std::uint8_t> got(kValueBytes);
    bool get_done = false;
    kv.get(1, 7, got.data(), [&](Tick) { get_done = true; });
    rack.run();
    ASSERT_TRUE(get_done);
    EXPECT_EQ(got, val);
    EXPECT_EQ(kv.localReads(), 1u);

    // Node 2 has no replica: remote read from the near store.
    std::fill(got.begin(), got.end(), 0);
    get_done = false;
    kv.get(2, 7, got.data(), [&](Tick) { get_done = true; });
    rack.run();
    ASSERT_TRUE(get_done);
    EXPECT_EQ(got, val);
    EXPECT_EQ(kv.remoteReads(), 1u);
}

TEST(ReplicatedKv, ConfigFromTopologyServiceLine)
{
    const auto topo = ClusterTopology::parse(
        "node ports=4\nnode ports=4\nnode ports=4\n"
        "service kind=kv node=1 "
        "params=replicas=2,placement=eci-host,slots=64,"
        "value_bytes=256,timeout_us=40\n");
    const auto svcs = topo.servicesOf("kv");
    ASSERT_EQ(svcs.size(), 1u);
    const auto cfg = ReplicatedKv::configFromService(svcs[0], topo);
    EXPECT_EQ(cfg.primary, 1u);
    ASSERT_EQ(cfg.replicas.size(), 2u);
    EXPECT_EQ(cfg.replicas[0], 2u);
    EXPECT_EQ(cfg.replicas[1], 0u);
    EXPECT_EQ(cfg.placement, "eci-host");
    EXPECT_EQ(cfg.slots, 64u);
    EXPECT_EQ(cfg.value_bytes, 256u);
    EXPECT_DOUBLE_EQ(cfg.timeout_us, 40.0);
}

TEST(ReplicatedKv, ReadYourWritesUnderRdmaRequestDrops)
{
    // enzchaos-style loss on the client's initiator: every put/get
    // pair must still read its own write thanks to timeout recovery.
    EnzianCluster::Config cfg;
    cfg.nodes = 3;
    EnzianCluster rack(cfg);

    ReplicatedKv::Config kcfg;
    kcfg.primary = 0;
    kcfg.replicas = {1};
    kcfg.value_bytes = kValueBytes;
    kcfg.timeout_us = 50.0;
    ReplicatedKv kv("chaoskv", rack, kcfg);

    Rng rng(99);
    kv.initiator(2).setFaults(&rng, 0.2);

    constexpr std::uint64_t kOps = 16;
    std::uint64_t verified = 0;
    std::vector<std::uint8_t> got(kValueBytes);
    std::function<void(std::uint64_t)> step = [&](std::uint64_t k) {
        if (k == kOps)
            return;
        // The payload is copied at issue time, so a stack-local
        // pattern is fine.
        const auto val = patternFor(k);
        kv.put(2, k, val.data(), [&, k](Tick) {
            kv.get(2, k, got.data(), [&, k](Tick) {
                if (got == patternFor(k))
                    ++verified;
                step(k + 1);
            });
        });
    };
    step(0);
    rack.run();

    EXPECT_EQ(verified, kOps);
    EXPECT_EQ(kv.puts(), kOps);
    EXPECT_EQ(kv.gets(), kOps);
    // The fault stream actually bit, and recovery actually ran.
    EXPECT_GT(kv.initiator(2).requestsDropped(), 0u);
    EXPECT_GT(kv.initiator(2).retriesSent(), 0u);
}

TEST(ClusterRegression, TwoDisaggServersInOneProcess)
{
    // Before the wire ledgers became instance-owned, every server in
    // the process shared one file-scope request/response map.
    EnzianCluster::Config cfg;
    cfg.nodes = 4;
    EnzianCluster rack(cfg);

    DisaggMemoryServer::Config sa;
    sa.port = rack.portOf(0);
    sa.region_size = 1ull << 20;
    DisaggMemoryServer srvA("srvA", rack.node(0), rack.network(), sa);
    DisaggMemoryServer::Config sb;
    sb.port = rack.portOf(1);
    sb.region_size = 1ull << 20;
    DisaggMemoryServer srvB("srvB", rack.node(1), rack.network(), sb);
    DisaggMemoryClient cliA("cliA", rack.node(2), rack.network(),
                            rack.portOf(2), srvA);
    DisaggMemoryClient cliB("cliB", rack.node(3), rack.network(),
                            rack.portOf(3), srvB);

    // Interleaved writes to the SAME offsets with different payloads.
    std::vector<std::uint8_t> da(4096, 0xaa), db(4096, 0xbb);
    int writes = 0;
    cliA.write(0x1000, da.data(), da.size(), [&](Tick) { ++writes; });
    cliB.write(0x1000, db.data(), db.size(), [&](Tick) { ++writes; });
    rack.run();
    ASSERT_EQ(writes, 2);

    std::vector<std::uint8_t> ra(4096), rb(4096);
    int reads = 0;
    cliA.read(0x1000, ra.data(), ra.size(), [&](Tick) { ++reads; });
    cliB.read(0x1000, rb.data(), rb.size(), [&](Tick) { ++reads; });
    rack.run();
    ASSERT_EQ(reads, 2);
    EXPECT_EQ(ra, da);
    EXPECT_EQ(rb, db);
    EXPECT_EQ(srvA.requestsInFlight(), 0u);
    EXPECT_EQ(srvB.requestsInFlight(), 0u);
}

TEST(ClusterRegression, TwoCoherenceBridgesInOneProcess)
{
    // Symmetric bridging: each node exports its CPU memory to the
    // other. Two targets + two sources share the process; their op
    // ledgers must not cross.
    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    EnzianCluster rack(cfg);
    auto &a = rack.node(0);
    auto &b = rack.node(1);
    const Addr window = mem::AddressMap::fpgaDramBase + (128ull << 20);

    EciBridgeTarget::Config ta;
    ta.port = rack.portOf(0, 0);
    EciBridgeTarget targetA("ta", a, rack.network(), ta);
    EciBridgeTarget::Config tb;
    tb.port = rack.portOf(1, 0);
    EciBridgeTarget targetB("tb", b, rack.network(), tb);

    eci::DramLineSource fbA(a.fpgaMem(), a.map());
    eci::DramLineSource fbB(b.fpgaMem(), b.map());
    EciBridgeSource::Config scfg;
    scfg.window_base = window;
    scfg.window_size = 16ull << 20;
    scfg.port = rack.portOf(0, 1);
    EciBridgeSource srcOnA("sa", a, rack.network(), fbA, targetB, scfg);
    scfg.port = rack.portOf(1, 1);
    EciBridgeSource srcOnB("sb", b, rack.network(), fbB, targetA, scfg);
    a.fpgaHome().setLineSource(&srcOnA);
    b.fpgaHome().setLineSource(&srcOnB);

    std::vector<std::uint8_t> da(cache::lineSize, 0x0a);
    std::vector<std::uint8_t> db(cache::lineSize, 0x0b);
    a.cpuMem().store().write(0x2000, da.data(), da.size());
    b.cpuMem().store().write(0x2000, db.data(), db.size());

    std::uint8_t fromB[cache::lineSize] = {};
    std::uint8_t fromA[cache::lineSize] = {};
    int done = 0;
    a.cpuRemote().readLine(window + 0x2000, fromB,
                           [&](Tick) { ++done; });
    b.cpuRemote().readLine(window + 0x2000, fromA,
                           [&](Tick) { ++done; });
    rack.run();
    ASSERT_EQ(done, 2);
    EXPECT_EQ(std::memcmp(fromB, db.data(), cache::lineSize), 0);
    EXPECT_EQ(std::memcmp(fromA, da.data(), cache::lineSize), 0);
    EXPECT_EQ(srcOnA.linesBridged(), 1u);
    EXPECT_EQ(srcOnB.linesBridged(), 1u);
    EXPECT_EQ(targetA.opsInFlight(), 0u);
    EXPECT_EQ(targetB.opsInFlight(), 0u);
}

TEST(ClusterRegressionDeath, SwitchTagOverflowIsFatal)
{
    // makeTag used to silently truncate both fields into each other.
    EXPECT_EQ(net::Switch::makeTag(255, (1ull << 56) - 1) >> 56, 255u);
    EXPECT_DEATH(net::Switch::makeTag(256, 0), "overflow");
    EXPECT_DEATH(net::Switch::makeTag(0, 1ull << 56), "overflow");
}

TEST(ClusterRegressionDeath, OutOfBoundsPredicateIsFatal)
{
    // The pushdown filter reads 8 bytes at column_offset; an offset
    // past row_bytes-8 used to memcpy beyond the row (ASan-visible),
    // now it dies at request registration.
    Predicate p;
    p.column_offset = 9;
    EXPECT_DEATH(p.validate(16), "predicate");
    p.column_offset = 0;
    EXPECT_DEATH(p.validate(4), "predicate"); // row below one word
    p.validate(8);                            // exact fit is legal

    EnzianCluster::Config cfg;
    cfg.nodes = 2;
    EnzianCluster rack(cfg);
    DisaggMemoryServer::Config scfg;
    scfg.port = rack.portOf(0);
    scfg.region_size = 1ull << 20;
    DisaggMemoryServer server("srv", rack.node(0), rack.network(), scfg);
    DisaggMemoryClient client("cli", rack.node(1), rack.network(),
                              rack.portOf(1), server);
    Predicate bad;
    bad.column_offset = 12; // rows are 16 B: would read [12, 20)
    EXPECT_DEATH(
        client.scanFilter(0, 16, 4, bad,
                          [](Tick, std::vector<std::uint8_t>,
                             std::uint64_t) {}),
        "predicate");
}

} // namespace
} // namespace enzian::cluster
