#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "sim/domain_scheduler.hh"
#include "sim/event_queue.hh"
#include "tracer.hh"

namespace simbench {

namespace {

bool
endsWith(const std::string &s, const std::string &tail)
{
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/** Sum of every snapshot value whose dotted name ends in @p suffix and
 *  contains @p part. */
double
sumStat(const enzian::obs::Snapshot &snap, const std::string &part,
        const std::string &suffix)
{
    double sum = 0.0;
    for (const auto &[name, value] : snap)
        if (endsWith(name, suffix) && name.find(part) != std::string::npos)
            sum += value;
    return sum;
}

/** FNV-1a over @p s, chained from @p h. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
fillPattern(std::uint64_t base, std::uint64_t salt, std::uint8_t *out,
            std::size_t bytes)
{
    for (std::size_t w = 0; w < bytes / 8; ++w) {
        std::uint64_t x = (base + w) ^ salt;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        x ^= x >> 31;
        std::memcpy(out + 8 * w, &x, 8);
    }
}

enzian::obs::Snapshot
exportRegistry(Round &round)
{
    HostTracer::Scope span("obs", "registry-export");
    auto &reg = enzian::obs::Registry::global();
    enzian::obs::Snapshot snap = reg.snapshot();
    std::ostringstream os;
    enzian::obs::Registry::exportJson(snap, os);
    round.registry_digest =
        round.registry_digest ? fnv1a(os.str(), round.registry_digest)
                              : fnv1a(os.str());
    double &stats = round.layer["obs.stats"];
    stats = std::max(stats, static_cast<double>(snap.size()));
    return snap;
}

void
recordLayers(Round &round, const enzian::obs::Snapshot &snap)
{
    // Sums over the round's machines; the eci.remote_* and eci.rtt_*
    // entries only feed the two ratios below.
    auto &L = round.layer;
    L["eci.msgs"] += sumStat(snap, ".eci.link", ".messages");
    L["eci.bytes"] += sumStat(snap, ".eci.link", ".bytes");
    L["eci.home_requests"] += sumStat(snap, ".home.", ".requests_served");
    L["eci.remote_requests"] += sumStat(snap, ".remote.", ".requests");
    L["eci.remote_retries"] += sumStat(snap, ".remote.", ".retries") +
                               sumStat(snap, ".remote.", ".pnaks");
    L["eci.rtt_ns_sum"] += sumStat(snap, ".remote.", ".rtt_ns.sum");
    L["eci.rtt_count"] += sumStat(snap, ".remote.", ".rtt_ns.count");
    L["eci.retry_ratio"] = L["eci.remote_requests"] > 0
                               ? L["eci.remote_retries"] /
                                     L["eci.remote_requests"]
                               : 0.0;
    L["eci.rtt_ns_mean"] =
        L["eci.rtt_count"] > 0 ? L["eci.rtt_ns_sum"] / L["eci.rtt_count"]
                               : 0.0;
    L["cache.l2_evictions"] += sumStat(snap, ".l2.", ".evictions");
    L["mem.dram_requests"] += sumStat(snap, ".mem.dram.ch", ".requests");
    L["mem.dram_bytes"] += sumStat(snap, ".mem.dram.ch", ".bytes");
    L["net.switch_bytes"] += sumStat(snap, ".port", ".bytes_tx_0") +
                             sumStat(snap, ".port", ".bytes_tx_1");
    // RDMA initiators are the groups that count abandoned requests.
    for (const auto &[name, value] : snap) {
        if (!endsWith(name, ".abandoned"))
            continue;
        const auto it = snap.find(
            name.substr(0, name.size() - std::strlen(".abandoned")) +
            ".retries");
        if (it != snap.end())
            L["net.rdma_retries"] += it->second;
    }
}

void
recordQueue(Round &round, const enzian::EventQueue &eq)
{
    round.events += eq.eventsExecuted();
    round.layer["sim.events"] += static_cast<double>(eq.eventsExecuted());
    round.layer["sim.scheduled"] +=
        static_cast<double>(eq.eventsScheduled());
    double &pool = round.layer["sim.slot_pool"];
    pool = std::max(pool, static_cast<double>(eq.slotPoolSize()));
}

void
recordScheduler(Round &round, enzian::sim::DomainScheduler &sched,
                const enzian::obs::Snapshot &snap)
{
    const std::size_t domains = sched.domainCount();
    double pool = 0.0, stalls = 0.0, max_events = 0.0;
    for (std::size_t i = 0; i < domains; ++i) {
        const auto &q = sched.domain(i).queue();
        round.events += q.eventsExecuted();
        round.layer["sim.events"] += static_cast<double>(q.eventsExecuted());
        round.layer["sim.scheduled"] +=
            static_cast<double>(q.eventsScheduled());
        pool += static_cast<double>(q.slotPoolSize());
        max_events = std::max(
            max_events,
            static_cast<double>(sched.domain(i).eventsExecuted()));
        const auto it =
            snap.find(sched.name() + ".d" + std::to_string(i) + "_stalls");
        if (it != snap.end())
            stalls += it->second;
    }
    const double epochs = static_cast<double>(sched.epochs());
    const double events = round.layer["sim.events"];
    round.layer["sim.slot_pool"] = pool;
    round.layer["sim.epochs"] = epochs;
    round.layer["sim.barrier_s"] =
        static_cast<double>(sched.barrierWallNs()) * 1e-9;
    const auto cross = snap.find(sched.name() + ".cross_msgs");
    round.layer["sim.cross_msgs"] =
        cross != snap.end() ? cross->second : 0.0;
    round.layer["sim.domain_stall_share"] =
        epochs > 0 ? stalls / (epochs * static_cast<double>(domains))
                   : 0.0;
    round.layer["sim.domain_event_imbalance"] =
        events > 0 ? max_events / (events / static_cast<double>(domains))
                   : 0.0;
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace simbench
