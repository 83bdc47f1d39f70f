/**
 * @file
 * enzrack: boot a described Enzian rack and run a canonical
 * replicated-KV workload over it.
 *
 * The rack is data: a plain-text topology (nodes, ports, per-node
 * cable latencies, service placement) either read from a file or
 * generated uniform. The tool instantiates the cluster on its
 * DomainScheduler, places the KV service the topology asks for (or a
 * default one), runs every node through puts plus cross-node gets,
 * and reports the rack's shape, the derived epoch lookahead, and the
 * service counters.
 *
 * Run `enzrack --help` for the options.
 */

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "base/cli.hh"
#include "cluster/enzian_cluster.hh"
#include "cluster/replicated_kv.hh"
#include "obs/registry.hh"
#include "sim/domain_scheduler.hh"

using namespace enzian;
using namespace enzian::cluster;

namespace {

struct RackResult
{
    std::uint64_t events = 0;
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t acks = 0;
    std::uint64_t localReads = 0;
    std::uint64_t remoteReads = 0;
    Tick lookahead = 0;
    std::uint32_t threads = 0;
    std::uint64_t epochs = 0;
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::string registryJson;
};

RackResult
runRack(const ClusterTopology &topo, std::uint32_t threads,
        std::uint32_t ops)
{
    EnzianCluster::Config cfg;
    cfg.topology = topo;
    cfg.threads = threads;
    EnzianCluster rack(cfg);

    // The topology's kv service, or a sensible default placement.
    ReplicatedKv::Config kcfg;
    const auto kv_svcs = topo.servicesOf("kv");
    if (!kv_svcs.empty()) {
        kcfg = ReplicatedKv::configFromService(kv_svcs.front(), topo);
    } else if (topo.nodeCount() > 1) {
        kcfg.replicas = {1 % topo.nodeCount()};
    }
    ReplicatedKv kv("rackkv", rack, kcfg);

    const std::uint32_t n = rack.nodeCount();
    std::vector<std::uint8_t> val(kv.config().value_bytes, 0x5c);
    for (std::uint32_t i = 0; i < n; ++i)
        for (std::uint32_t k = 0; k < ops; ++k)
            kv.put(i, static_cast<std::uint64_t>(i) * ops + k,
                   val.data(), [](Tick) {});
    RackResult res;
    res.events = rack.run();

    // Cross-node reads at a fixed tick: node i fetches a key written
    // by its neighbour.
    std::vector<std::vector<std::uint8_t>> outs(
        n, std::vector<std::uint8_t>(kv.config().value_bytes));
    const Tick phase2 = units::us(2000.0);
    for (std::uint32_t i = 0; i < n; ++i) {
        rack.node(i).fpgaEventq().schedule(phase2, [&kv, &outs, i, n,
                                                    ops]() {
            kv.get(i,
                   static_cast<std::uint64_t>((i + 1) % n) * ops,
                   outs[i].data(), [](Tick) {});
        });
    }
    res.events += rack.run();

    res.puts = kv.puts();
    res.gets = kv.gets();
    res.acks = kv.replicaAcks();
    res.localReads = kv.localReads();
    res.remoteReads = kv.remoteReads();
    const sim::DomainScheduler &sched = *rack.scheduler();
    res.lookahead = sched.lookahead();
    res.threads = sched.threads();
    res.epochs = sched.epochs();
    res.grows = sched.adaptiveGrows();
    res.shrinks = sched.adaptiveShrinks();
    std::ostringstream os;
    obs::Registry::global().exportJson(os);
    res.registryJson = os.str();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string topo_file;
    std::uint32_t nodes = 4, ports = 4, ops = 4;
    std::uint32_t threads = cli::envThreads();
    bool describe = false, check = false;
    std::optional<std::string> json;
    cli::Tool tool("enzrack", "Boot a described Enzian rack and run a "
                              "replicated-KV workload over it.");
    tool.value("--topology", topo_file, "FILE",
               "rack description (see DESIGN.md §11)")
        .value("--nodes", nodes, "N", "uniform rack of N nodes (default 4)")
        .value("--ports", ports, "N",
               "ports per node for --nodes (default 4)")
        .value("--threads", threads, "N",
               "run the timing domains on N threads (0 = 1; "
               "default ENZIAN_THREADS)")
        .value("--ops", ops, "N", "puts per node (default 4)")
        .flag("--describe", describe,
              "print the canonical topology and exit")
        .flag("--check-determinism", check,
              "byte-compare the registries of a 1-thread and a "
              "--threads run; exit 1 on divergence")
        .optionalValue("--json", json, "FILE",
                       "also dump the stats registry JSON")
        .parse(argc, argv);

    const ClusterTopology topo =
        topo_file.empty() ? ClusterTopology::uniform(nodes, ports)
                          : ClusterTopology::parseFile(topo_file);
    if (describe) {
        std::fputs(topo.describe().c_str(), stdout);
        return 0;
    }

    if (check) {
        // The same rack must simulate identically — down to the
        // exported registry bytes — at 1 thread and at N.
        const std::uint32_t n_threads = threads ? threads : 4;
        const auto r1 = runRack(topo, 1, ops);
        const auto rn = runRack(topo, n_threads, ops);
        const bool same = r1.registryJson == rn.registryJson &&
                          r1.events == rn.events;
        std::printf("determinism: %u nodes, 1 vs %u threads: %s "
                    "(%llu events, %zu registry bytes)\n",
                    topo.nodeCount(), n_threads,
                    same ? "byte-identical" : "DIVERGED",
                    static_cast<unsigned long long>(r1.events),
                    r1.registryJson.size());
        if (!same)
            return 1;
    }

    const auto res = runRack(topo, threads, ops);
    std::printf("rack '%s': %u nodes, %u switch ports, timing domains\n",
                topo.name.c_str(), topo.nodeCount(), topo.totalPorts());
    std::printf("  threads: %u, epoch lookahead: %.0f ns "
                "(derived from topology)\n",
                res.threads, units::toNanos(res.lookahead));
    std::printf("  epochs: %llu (%llu grown past the lookahead, "
                "%llu shrinks back)\n",
                static_cast<unsigned long long>(res.epochs),
                static_cast<unsigned long long>(res.grows),
                static_cast<unsigned long long>(res.shrinks));
    std::printf("  events: %llu\n",
                static_cast<unsigned long long>(res.events));
    std::printf("  kv: %llu puts (%llu replica acks), %llu gets "
                "(%llu local, %llu remote)\n",
                static_cast<unsigned long long>(res.puts),
                static_cast<unsigned long long>(res.acks),
                static_cast<unsigned long long>(res.gets),
                static_cast<unsigned long long>(res.localReads),
                static_cast<unsigned long long>(res.remoteReads));

    if (json) {
        if (!tool.writeTo(*json, [&](std::ostream &os) {
                os << res.registryJson;
            }))
            return cli::exitFailure;
        if (!json->empty() && *json != "-")
            std::printf("  registry: %s\n", json->c_str());
    }
    return 0;
}
