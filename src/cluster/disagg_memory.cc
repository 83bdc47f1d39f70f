/**
 * @file
 * Disaggregated memory implementation.
 */

#include "cluster/disagg_memory.hh"

#include <cstring>

#include "base/logging.hh"

namespace enzian::cluster {

namespace {

constexpr std::uint32_t headerBytes = 64;

} // namespace

void
Predicate::validate(std::uint32_t row_bytes) const
{
    if (row_bytes < sizeof(std::uint64_t) ||
        column_offset > row_bytes - sizeof(std::uint64_t))
        fatal("pushdown predicate reads 8 bytes at row offset %u, but "
              "rows are only %u bytes",
              column_offset, row_bytes);
}

bool
Predicate::matches(const std::uint8_t *row) const
{
    std::uint64_t v = 0;
    std::memcpy(&v, row + column_offset, sizeof(v));
    switch (op) {
      case FilterOp::Eq:
        return v == operand;
      case FilterOp::Ne:
        return v != operand;
      case FilterOp::Lt:
        return v < operand;
      case FilterOp::Le:
        return v <= operand;
      case FilterOp::Gt:
        return v > operand;
      case FilterOp::Ge:
        return v >= operand;
    }
    panic("bad filter op");
}

std::uint64_t
DisaggMemoryServer::registerRequest(WireRequest req)
{
    if (req.kind == WireRequest::Kind::ScanFilter)
        req.pred.validate(req.row_bytes);
    return requests_.put(std::move(req));
}

std::vector<std::uint8_t>
DisaggMemoryServer::takeResponse(std::uint64_t id)
{
    auto out = responses_.take(id);
    return out ? std::move(*out) : std::vector<std::uint8_t>{};
}

DisaggMemoryServer::DisaggMemoryServer(std::string name,
                                       platform::EnzianMachine &node,
                                       net::Switch &sw, const Config &cfg)
    : SimObject(std::move(name), node.fpgaEventq()), sw_(sw),
      mem_(node.fpgaMem()), cfg_(cfg)
{
    sw_.setEndpoint(cfg_.port,
                    [this](Tick when, std::uint64_t payload,
                           std::uint64_t tag) {
                        onFrame(when, payload, net::Switch::userOf(tag));
                    });
    stats().addCounter("requests", &served_);
    stats().addCounter("rows_scanned", &scanned_);
    stats().addCounter("bytes_returned", &returned_);
}

void
DisaggMemoryServer::onFrame(Tick, std::uint64_t, std::uint64_t user)
{
    const std::uint64_t id = user;
    eventq().scheduleDelta(units::ns(cfg_.request_proc_ns),
                           [this, id]() { serve(id); },
                           "disagg-request");
}

void
DisaggMemoryServer::serve(std::uint64_t id)
{
    auto taken = requests_.take(id);
    ENZIAN_ASSERT(taken, "unknown disagg request %llu",
                  static_cast<unsigned long long>(id));
    WireRequest req = std::move(*taken);
    served_.inc();

    using Kind = WireRequest::Kind;
    switch (req.kind) {
      case Kind::Read: {
        ENZIAN_ASSERT(req.off + req.len <= cfg_.region_size,
                      "disagg read out of region");
        std::vector<std::uint8_t> out(req.len);
        const Tick ready =
            mem_.read(now(), cfg_.region_base + req.off, out.data(),
                      req.len)
                .done;
        returned_.inc(req.len);
        responses_.putAt(id, std::move(out));
        eventq().schedule(
            ready,
            [this, id, port = req.srcPort, len = req.len]() {
                sw_.sendFrom(cfg_.port, len + headerBytes,
                             net::Switch::makeTag(port, id));
            },
            "disagg-read-done");
        return;
      }
      case Kind::Write: {
        ENZIAN_ASSERT(req.off + req.data.size() <= cfg_.region_size,
                      "disagg write out of region");
        const Tick durable =
            mem_.write(now(), cfg_.region_base + req.off,
                       req.data.data(), req.data.size())
                .done;
        eventq().schedule(
            durable,
            [this, id, port = req.srcPort]() {
                sw_.sendFrom(cfg_.port, headerBytes,
                             net::Switch::makeTag(port, id));
            },
            "disagg-write-done");
        return;
      }
      case Kind::ScanFilter: {
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(req.row_bytes) * req.row_count;
        ENZIAN_ASSERT(req.off + bytes <= cfg_.region_size,
                      "disagg scan out of region");
        req.pred.validate(req.row_bytes);
        // The scan engine streams rows from DRAM and filters in the
        // fabric: time = max(DRAM stream, engine rate).
        std::vector<std::uint8_t> rows(bytes);
        const Tick dram_done =
            mem_.read(now(), cfg_.region_base + req.off, rows.data(),
                      bytes)
                .done;
        const double engine_s =
            static_cast<double>(req.row_count) /
            (cfg_.rows_per_cycle * cfg_.clock_hz);
        const Tick ready =
            std::max(dram_done, now() + units::sec(engine_s));

        std::vector<std::uint8_t> matches;
        for (std::uint64_t r = 0; r < req.row_count; ++r) {
            const std::uint8_t *row = rows.data() + r * req.row_bytes;
            if (req.pred.matches(row))
                matches.insert(matches.end(), row,
                               row + req.row_bytes);
        }
        scanned_.inc(req.row_count);
        returned_.inc(matches.size());
        const std::uint64_t wire = matches.size() + headerBytes;
        responses_.putAt(id, std::move(matches));
        eventq().schedule(
            ready,
            [this, id, port = req.srcPort, wire]() {
                sw_.sendFrom(cfg_.port, wire,
                             net::Switch::makeTag(port, id));
            },
            "disagg-scan-done");
        return;
      }
    }
    panic("bad disagg request kind");
}

DisaggMemoryClient::DisaggMemoryClient(std::string name,
                                       platform::EnzianMachine &node,
                                       net::Switch &sw,
                                       std::uint32_t port,
                                       DisaggMemoryServer &server)
    : SimObject(std::move(name), node.fpgaEventq()), sw_(sw), port_(port),
      server_(server)
{
    sw_.setEndpoint(port_,
                    [this](Tick when, std::uint64_t payload,
                           std::uint64_t tag) {
                        onFrame(when, payload, net::Switch::userOf(tag));
                    });
}

void
DisaggMemoryClient::read(Addr off, std::uint8_t *dst, std::uint64_t len,
                         Done done)
{
    DisaggMemoryServer::WireRequest req;
    req.kind = DisaggMemoryServer::WireRequest::Kind::Read;
    req.off = off;
    req.len = len;
    req.srcPort = port_;
    const std::uint64_t id = server_.registerRequest(std::move(req));
    pending_[id] = Pending{dst, std::move(done), {}};
    sw_.sendFrom(port_, headerBytes,
                 net::Switch::makeTag(server_.config().port, id));
}

void
DisaggMemoryClient::write(Addr off, const std::uint8_t *src,
                          std::uint64_t len, Done done)
{
    DisaggMemoryServer::WireRequest req;
    req.kind = DisaggMemoryServer::WireRequest::Kind::Write;
    req.off = off;
    req.srcPort = port_;
    req.data.assign(src, src + len);
    const std::uint64_t id = server_.registerRequest(std::move(req));
    pending_[id] = Pending{nullptr, std::move(done), {}};
    sw_.sendFrom(port_, len + headerBytes,
                 net::Switch::makeTag(server_.config().port, id));
}

void
DisaggMemoryClient::scanFilter(Addr off, std::uint32_t row_bytes,
                               std::uint64_t row_count,
                               const Predicate &pred, ScanDone done)
{
    DisaggMemoryServer::WireRequest req;
    req.kind = DisaggMemoryServer::WireRequest::Kind::ScanFilter;
    req.off = off;
    req.row_bytes = row_bytes;
    req.row_count = row_count;
    req.pred = pred;
    req.srcPort = port_;
    const std::uint64_t id = server_.registerRequest(std::move(req));
    Pending p;
    p.scan_done = std::move(done);
    pending_[id] = std::move(p);
    sw_.sendFrom(port_, headerBytes,
                 net::Switch::makeTag(server_.config().port, id));
}

void
DisaggMemoryClient::onFrame(Tick when, std::uint64_t payload,
                            std::uint64_t user)
{
    const std::uint64_t id = user;
    auto it = pending_.find(id);
    ENZIAN_ASSERT(it != pending_.end(),
                  "disagg response for unknown id %llu",
                  static_cast<unsigned long long>(id));
    Pending p = std::move(it->second);
    pending_.erase(it);
    auto data = server_.takeResponse(id);
    if (p.scan_done) {
        p.scan_done(when, std::move(data), payload);
        return;
    }
    if (p.dst && !data.empty())
        std::memcpy(p.dst, data.data(), data.size());
    if (p.done)
        p.done(when);
}

} // namespace enzian::cluster
