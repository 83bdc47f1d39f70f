/**
 * @file
 * Registry implementation.
 */

#include "obs/registry.hh"

#include <algorithm>
#include <cctype>

#include "obs/json.hh"

namespace enzian::obs {

Snapshot
diff(const Snapshot &newer, const Snapshot &older)
{
    Snapshot out;
    for (const auto &[k, v] : newer) {
        auto it = older.find(k);
        out.emplace(k, it == older.end() ? v : v - it->second);
    }
    return out;
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

void
Registry::add(StatGroup *g)
{
    groups_.push_back(g);
}

void
Registry::remove(StatGroup *g)
{
    auto it = std::find(groups_.begin(), groups_.end(), g);
    if (it != groups_.end())
        groups_.erase(it);
}

std::vector<const StatGroup *>
Registry::groups() const
{
    std::vector<const StatGroup *> out(groups_.begin(), groups_.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const StatGroup *a, const StatGroup *b) {
                         return a->name() < b->name();
                     });
    return out;
}

namespace {

/** Append every stat of @p g to @p snap as flattened dotted names. */
void
flatten(const StatGroup &g, Snapshot &snap)
{
    const std::string &base = g.name();
    for (const auto &[n, c] : g.counters())
        snap[base + '.' + n] = static_cast<double>(c->value());
    for (const auto &[n, gg] : g.gauges())
        snap[base + '.' + n] = gg->value();
    for (const auto &[n, a] : g.accumulators()) {
        const std::string p = base + '.' + n;
        snap[p + ".count"] = static_cast<double>(a->count());
        snap[p + ".sum"] = a->sum();
        snap[p + ".mean"] = a->mean();
        snap[p + ".min"] = a->min();
        snap[p + ".max"] = a->max();
    }
    for (const auto &[n, h] : g.histograms()) {
        const std::string p = base + '.' + n;
        snap[p + ".count"] = static_cast<double>(h->count());
        snap[p + ".p50"] = static_cast<double>(h->quantile(0.50));
        snap[p + ".p90"] = static_cast<double>(h->quantile(0.90));
        snap[p + ".p99"] = static_cast<double>(h->quantile(0.99));
    }
}

} // namespace

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    for (const StatGroup *g : groups_)
        flatten(*g, snap);
    return snap;
}

void
Registry::resetAll()
{
    for (StatGroup *g : groups_)
        g->resetAll();
}

void
Registry::exportJson(const Snapshot &snap, std::ostream &os)
{
    // The snapshot is sorted, so a streaming writer only needs to
    // track the current nesting path of dot-separated segments.
    std::vector<std::string> path;
    bool first = true;
    os << "{";
    for (const auto &[key, value] : snap) {
        std::vector<std::string> segs;
        std::size_t start = 0;
        for (std::size_t i = 0; i <= key.size(); ++i) {
            if (i == key.size() || key[i] == '.') {
                segs.push_back(key.substr(start, i - start));
                start = i + 1;
            }
        }
        // Shared prefix with the currently open path (the leaf is
        // never shared: it's a value, not an object).
        std::size_t common = 0;
        while (common < path.size() && common + 1 < segs.size() &&
               path[common] == segs[common])
            ++common;
        for (std::size_t i = path.size(); i > common; --i)
            os << "}";
        path.resize(common);
        for (std::size_t i = common; i + 1 < segs.size(); ++i) {
            os << (first ? "" : ",") << json::quote(segs[i]) << ":{";
            first = true;
            path.push_back(segs[i]);
        }
        os << (first ? "" : ",") << json::quote(segs.back()) << ":"
           << json::number(value);
        first = false;
    }
    for (std::size_t i = path.size(); i > 0; --i)
        os << "}";
    os << "}\n";
}

void
Registry::exportJson(std::ostream &os) const
{
    exportJson(snapshot(), os);
}

std::string
Registry::prometheusName(const std::string &dotted)
{
    std::string out = "enzian_";
    for (const char c : dotted) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += c;
        else
            out += '_';
    }
    return out;
}

void
Registry::exportPrometheus(std::ostream &os) const
{
    for (const StatGroup *g : groups()) {
        for (const auto &[n, c] : g->counters()) {
            const std::string m = prometheusName(g->name() + '.' + n);
            os << "# TYPE " << m << " counter\n"
               << m << ' ' << c->value() << '\n';
        }
        for (const auto &[n, gg] : g->gauges()) {
            const std::string m = prometheusName(g->name() + '.' + n);
            os << "# TYPE " << m << " gauge\n"
               << m << ' ' << json::number(gg->value()) << '\n';
        }
        for (const auto &[n, a] : g->accumulators()) {
            const std::string m = prometheusName(g->name() + '.' + n);
            os << "# TYPE " << m << " summary\n"
               << m << "_count " << a->count() << '\n'
               << m << "_sum " << json::number(a->sum()) << '\n';
        }
        for (const auto &[n, h] : g->histograms()) {
            const std::string m = prometheusName(g->name() + '.' + n);
            os << "# TYPE " << m << " summary\n"
               << m << "{quantile=\"0.5\"} " << h->quantile(0.5) << '\n'
               << m << "{quantile=\"0.9\"} " << h->quantile(0.9) << '\n'
               << m << "{quantile=\"0.99\"} " << h->quantile(0.99)
               << '\n'
               << m << "_count " << h->count() << '\n'
               << m << "_sum " << json::number(h->sum()) << '\n';
        }
    }
}

} // namespace enzian::obs
