/**
 * @file
 * rack_kv: a replicated key-value store across a 4-node rack.
 *
 * A 4-node EnzianCluster under the DomainScheduler, run on one thread
 * by default: on a shared host, vCPU steal stalls the epoch barrier of
 * a multi-threaded run for whole seconds (--threads sets 1 to 4; the
 * simulation is identical at every count). ReplicatedKv keeps the primary on node 0 and one replica
 * on node 1, in CPU host memory reached over coherent ECI, with 1 KiB
 * values. Eight closed-loop clients per node each wait for a reply
 * before their next operation: 90% gets, 10% puts, uniform keys from
 * the seed. Slots are pre-filled with f(key) and puts write f(key),
 * so every get must return f(key) in any interleaving. Modelled
 * caches start empty.
 */

#include <cstring>
#include <memory>

#include "base/rng.hh"
#include "cluster/enzian_cluster.hh"
#include "cluster/replicated_kv.hh"
#include "harness.hh"
#include "sim/domain_scheduler.hh"
#include "tracer.hh"

namespace simbench {

namespace {

using namespace enzian;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kClientsPerNode = 8;
constexpr std::uint32_t kValueBytes = 1024;
constexpr std::uint64_t kSlots = 8192;
constexpr std::uint64_t kOpsPerClient = 1000;
constexpr double kGetShare = 0.9;

/** The value stored under @p key: f(key). */
void
valueOf(std::uint64_t key, std::uint64_t salt, std::uint8_t *out)
{
    fillPattern(key * (kValueBytes / 8), salt, out, kValueBytes);
}

class RackKv
{
  public:
    RackKv(const RoundConfig &cfg, Round &round)
        : cfg_(cfg), round_(round),
          ops_(static_cast<std::uint64_t>(kOpsPerClient * cfg.scale)),
          salt_(cfg.seed * 0xd1b54a32d192ed03ull)
    {
        for (std::uint32_t c = 0; c < kNodes * kClientsPerNode; ++c) {
            auto cl = std::make_unique<Client>();
            cl->id = c;
            cl->node = c % kNodes;
            cl->rng = Rng(cfg.seed * 1000003 + c);
            cl->left = ops_;
            clients_.push_back(std::move(cl));
        }
    }

    void
    run()
    {
        const auto t0 = Clock::now();
        {
            HostTracer::Scope span("platform", "cluster-ctor");
            cluster::EnzianCluster::Config cc;
            cc.nodes = kNodes;
            cc.threads = cfg_.threads;
            rack_ = std::make_unique<cluster::EnzianCluster>(cc);
        }
        round_.build_s = secondsSince(t0);

        const auto t1 = Clock::now();
        {
            HostTracer::Scope span("cluster", "kv-wire");
            cluster::ReplicatedKv::Config kc;
            kc.primary = 0;
            kc.replicas = {1};
            kc.placement = "eci-host";
            kc.slots = kSlots;
            kc.value_bytes = kValueBytes;
            kv_ = std::make_unique<cluster::ReplicatedKv>("rackkv", *rack_,
                                                          kc);
        }
        {
            HostTracer::Scope span("mem", "prefill-host-slots");
            std::uint8_t v[kValueBytes];
            for (std::uint32_t s = 0; s < kv_->storeCount(); ++s) {
                auto &store = rack_->node(kv_->storeNode(s)).cpuMem().store();
                for (std::uint64_t key = 0; key < kSlots; ++key) {
                    valueOf(key, salt_, v);
                    store.write(kv_->config().region_base + key * kValueBytes,
                                v, kValueBytes);
                }
            }
        }
        round_.wire_s = secondsSince(t1);

        const auto t2 = Clock::now();
        {
            HostTracer::Scope span("sim", "run");
            for (auto &c : clients_)
                issue(*c);
            rack_->run();
        }
        round_.run_s = secondsSince(t2);
        finish();
    }

  private:
    struct Client
    {
        std::uint32_t id = 0;
        std::uint32_t node = 0;
        Rng rng;
        std::uint64_t left = 0;
        std::uint64_t seq = 0;
        std::uint64_t key = 0;
        bool get = true;
        Tick issued = 0;
        std::uint8_t put_value[kValueBytes];
        std::uint8_t got[kValueBytes];
    };

    /** Per-node results; written only from that node's FPGA domain,
     *  where its clients' completions run. */
    struct NodeResult
    {
        std::vector<double> get_us;
        std::vector<double> put_us;
        std::uint64_t done = 0;
        std::uint64_t mismatches = 0;
        Tick end = 0;
    };

    void
    issue(Client &c)
    {
        if (c.left == 0)
            return;
        --c.left;
        c.key = c.rng.below(kSlots);
        c.get = c.rng.chance(kGetShare);
        c.issued = rack_->node(c.node).fpgaEventq().now();
        const std::uint64_t req = (c.id + 1) * 1000000 + c.seq++;
        auto done = [this, &c](Tick t) { complete(c, t); };
        if (c.get) {
            HostTracer::Scope span("cluster", "kv-get", req);
            kv_->get(c.node, c.key, c.got, done);
        } else {
            valueOf(c.key, salt_, c.put_value);
            HostTracer::Scope span("cluster", "kv-put", req);
            kv_->put(c.node, c.key, c.put_value, done);
        }
    }

    void
    complete(Client &c, Tick t)
    {
        NodeResult &n = nodes_[c.node];
        const double us = units::toMicros(t - c.issued);
        if (c.get) {
            std::uint8_t want[kValueBytes];
            valueOf(c.key, salt_, want);
            if (std::memcmp(want, c.got, kValueBytes) != 0)
                ++n.mismatches;
            n.get_us.push_back(us);
        } else {
            n.put_us.push_back(us);
        }
        ++n.done;
        n.end = std::max(n.end, t);
        // The next operation leaves when the reply has arrived.
        EventQueue &eq = rack_->node(c.node).fpgaEventq();
        if (t > eq.now())
            eq.schedule(t, [this, &c]() { issue(c); }, "simbench-next");
        else
            issue(c);
    }

    void
    finish()
    {
        std::vector<double> get_us, put_us;
        std::uint64_t done = 0, mismatches = 0;
        for (const NodeResult &n : nodes_) {
            get_us.insert(get_us.end(), n.get_us.begin(), n.get_us.end());
            put_us.insert(put_us.end(), n.put_us.begin(), n.put_us.end());
            done += n.done;
            mismatches += n.mismatches;
            round_.end_tick = std::max(round_.end_tick, n.end);
        }
        round_.attempted = ops_ * clients_.size();
        round_.failed = (round_.attempted - done) + mismatches;
        auto &L = round_.layer;
        L["cluster.kv_get_p99_us"] = quantile(get_us, 0.99);
        L["cluster.kv_put_p99_us"] = quantile(put_us, 0.99);
        L["cluster.kv_gets"] = static_cast<double>(kv_->gets());
        L["cluster.kv_puts"] = static_cast<double>(kv_->puts());
        L["cluster.kv_replica_acks"] =
            static_cast<double>(kv_->replicaAcks());
        L["cluster.kv_local_read_ratio"] =
            kv_->gets() ? static_cast<double>(kv_->localReads()) /
                              static_cast<double>(kv_->gets())
                        : 0.0;
        const obs::Snapshot snap = exportRegistry(round_);
        recordScheduler(round_, *rack_->scheduler(), snap);
        recordLayers(round_, snap);
        HostTracer::Scope span("platform", "cluster-dtor");
        kv_.reset();
        rack_.reset();
    }

    const RoundConfig &cfg_;
    Round &round_;
    const std::uint64_t ops_;
    const std::uint64_t salt_;
    std::vector<std::unique_ptr<Client>> clients_;
    NodeResult nodes_[kNodes];
    std::unique_ptr<cluster::EnzianCluster> rack_;
    std::unique_ptr<cluster::ReplicatedKv> kv_;
};

} // namespace

Round
runRackKv(const RoundConfig &cfg)
{
    Round round;
    auto bench = std::make_unique<RackKv>(cfg, round);
    bench->run();
    return round;
}

} // namespace simbench
