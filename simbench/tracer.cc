#include "tracer.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace simbench {

namespace {

/** Stored spans across all threads; later spans still count toward
 *  self time but are not kept for the JSON file. */
constexpr std::size_t kMaxStoredSpans = 1u << 17;

struct Span
{
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t req;
    std::int64_t start_ns;
    std::int64_t end_ns;
    const char *layer;
    const char *name;
};

struct Open
{
    Span span;
    std::int64_t child_ns;
};

/** One thread's buffer. Heap-owned by the tracer so it outlives
 *  domain worker threads, which end when their scheduler does. */
struct ThreadBuf
{
    std::uint32_t tid = 0;
    std::vector<Span> spans;
    std::vector<Open> stack;
    std::map<const char *, std::int64_t> selfNs;
    std::uint64_t count = 0;
};

const auto g_t0 = std::chrono::steady_clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_nextId{1};
/** The main thread's innermost open "sim" span: parent of spans that
 *  worker threads open while it runs. */
std::atomic<std::uint64_t> g_runSpan{0};
std::atomic<std::size_t> g_stored{0};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs; // guarded by g_mu
thread_local ThreadBuf *t_buf = nullptr;

ThreadBuf &
threadBuf()
{
    if (!t_buf) {
        std::lock_guard<std::mutex> lk(g_mu);
        g_bufs.push_back(std::make_unique<ThreadBuf>());
        t_buf = g_bufs.back().get();
        t_buf->tid = static_cast<std::uint32_t>(g_bufs.size());
    }
    return *t_buf;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - g_t0)
        .count();
}

bool
isSim(const char *layer)
{
    return std::strcmp(layer, "sim") == 0;
}

} // namespace

void
HostTracer::setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
HostTracer::enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

HostTracer::Scope::Scope(const char *layer, const char *name,
                         std::uint64_t req)
    : active_(enabled())
{
    if (!active_)
        return;
    ThreadBuf &b = threadBuf();
    Open o{};
    o.span.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    o.span.parent = b.stack.empty()
                        ? g_runSpan.load(std::memory_order_relaxed)
                        : b.stack.back().span.id;
    o.span.req = req;
    o.span.layer = layer;
    o.span.name = name;
    if (isSim(layer))
        g_runSpan.store(o.span.id, std::memory_order_relaxed);
    b.stack.push_back(o);
    b.stack.back().span.start_ns = nowNs();
}

HostTracer::Scope::~Scope()
{
    if (!active_)
        return;
    const std::int64_t end = nowNs();
    ThreadBuf &b = threadBuf();
    Open o = b.stack.back();
    b.stack.pop_back();
    o.span.end_ns = end;
    const std::int64_t dur = end - o.span.start_ns;
    b.selfNs[o.span.layer] += dur - o.child_ns;
    ++b.count;
    if (!b.stack.empty())
        b.stack.back().child_ns += dur;
    if (isSim(o.span.layer))
        g_runSpan.store(o.span.parent, std::memory_order_relaxed);
    if (g_stored.fetch_add(1, std::memory_order_relaxed) <
        kMaxStoredSpans)
        b.spans.push_back(o.span);
}

std::map<std::string, double>
HostTracer::selfSeconds()
{
    std::lock_guard<std::mutex> lk(g_mu);
    std::map<std::string, double> out;
    for (const auto &b : g_bufs)
        for (const auto &[layer, ns] : b->selfNs)
            out[layer] += static_cast<double>(ns) * 1e-9;
    return out;
}

std::uint64_t
HostTracer::spanCount()
{
    std::lock_guard<std::mutex> lk(g_mu);
    std::uint64_t n = 0;
    for (const auto &b : g_bufs)
        n += b->count;
    return n;
}

void
HostTracer::resetTotals()
{
    std::lock_guard<std::mutex> lk(g_mu);
    for (auto &b : g_bufs) {
        b->selfNs.clear();
        b->count = 0;
    }
}

void
HostTracer::writeChromeJson(std::ostream &os)
{
    std::lock_guard<std::mutex> lk(g_mu);
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    char line[512];
    for (const auto &b : g_bufs) {
        std::snprintf(line, sizeof(line),
                      "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":"
                      "\"thread_name\",\"args\":{\"name\":\"%s %u\"}}",
                      first ? "" : ",", b->tid,
                      b->tid == 1 ? "main" : "thread", b->tid);
        os << line;
        first = false;
    }
    for (const auto &b : g_bufs) {
        for (const Span &s : b->spans) {
            std::snprintf(
                line, sizeof(line),
                "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"%s\",\"args\":"
                "{\"id\":%llu,\"parent\":%llu,\"req\":%llu}}",
                first ? "" : ",", b->tid,
                static_cast<double>(s.start_ns) * 1e-3,
                static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                s.name, s.layer, static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                static_cast<unsigned long long>(s.req));
            os << line;
            first = false;
        }
    }
    os << "]}\n";
}

} // namespace simbench
