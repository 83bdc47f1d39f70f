/**
 * @file
 * Coherence bridge implementation.
 */

#include "cluster/eci_bridge.hh"

#include <cstring>

#include "base/logging.hh"

namespace enzian::cluster {

namespace {

constexpr std::uint32_t bridgeHeaderBytes = 48;

} // namespace

std::vector<std::uint8_t>
EciBridgeTarget::takeResult(std::uint64_t id)
{
    auto out = results_.take(id);
    return out ? std::move(*out) : std::vector<std::uint8_t>{};
}

EciBridgeTarget::EciBridgeTarget(std::string name,
                                 platform::EnzianMachine &node,
                                 net::Switch &sw, const Config &cfg)
    : SimObject(std::move(name), node.fpgaEventq()), sw_(sw),
      remote_(node.fpgaRemote()), cfg_(cfg)
{
    sw_.setEndpoint(cfg_.port,
                    [this](Tick when, std::uint64_t payload,
                           std::uint64_t tag) {
                        onFrame(when, payload, net::Switch::userOf(tag));
                    });
    stats().addCounter("lines_served", &served_);
}

void
EciBridgeTarget::onFrame(Tick, std::uint64_t, std::uint64_t user)
{
    const std::uint64_t id = user;
    eventq().scheduleDelta(
        units::ns(cfg_.proc_ns),
        [this, id]() {
            auto taken = ops_.take(id);
            ENZIAN_ASSERT(taken, "unknown bridge op %llu",
                          static_cast<unsigned long long>(id));
            auto op = std::make_shared<WireOp>(std::move(*taken));
            served_.inc();
            const Addr line = cfg_.export_base + op->line;
            if (op->write) {
                remote_.writeLineUncached(
                    line, op->data.data(), [this, op, id](Tick) {
                        sw_.sendFrom(cfg_.port, bridgeHeaderBytes,
                                     net::Switch::makeTag(op->srcPort,
                                                          id));
                    });
            } else {
                auto buf = std::make_shared<
                    std::vector<std::uint8_t>>(cache::lineSize);
                remote_.readLineUncached(
                    line, buf->data(), [this, op, buf, id](Tick) {
                        results_.putAt(id, std::move(*buf));
                        sw_.sendFrom(
                            cfg_.port,
                            bridgeHeaderBytes + cache::lineSize,
                            net::Switch::makeTag(op->srcPort, id));
                    });
            }
        },
        "bridge-serve");
}

EciBridgeSource::EciBridgeSource(std::string name,
                                 platform::EnzianMachine &node,
                                 net::Switch &sw,
                                 eci::LineSource &fallback,
                                 EciBridgeTarget &target,
                                 const Config &cfg)
    : SimObject(std::move(name), node.fpgaEventq()), sw_(sw),
      fallback_(fallback), target_(target), cfg_(cfg)
{
    ENZIAN_ASSERT(cache::isLineAligned(cfg_.window_base),
                  "bridge window must be line aligned");
    sw_.setEndpoint(cfg_.port,
                    [this](Tick when, std::uint64_t payload,
                           std::uint64_t tag) {
                        onFrame(when, payload, net::Switch::userOf(tag));
                    });
    stats().addCounter("lines_bridged", &bridged_);
}

void
EciBridgeSource::readLine(Tick when, Addr addr, std::uint8_t *out,
                          Done done)
{
    if (!inWindow(addr)) {
        fallback_.readLine(when, addr, out, std::move(done));
        return;
    }
    bridged_.inc();
    EciBridgeTarget::WireOp op;
    op.write = false;
    op.line = addr - cfg_.window_base;
    op.srcPort = cfg_.port;
    const std::uint64_t id = target_.registerOp(std::move(op));
    pending_[id] = Pending{out, std::move(done)};
    // The request leaves when the home pipeline hands it over.
    eventq().schedule(
        std::max(when, now()),
        [this, id]() {
            sw_.sendFrom(cfg_.port, bridgeHeaderBytes,
                         net::Switch::makeTag(target_.config().port,
                                              id));
        },
        "bridge-read-req");
}

void
EciBridgeSource::writeLine(Tick when, Addr addr,
                           const std::uint8_t *data, Done done)
{
    if (!inWindow(addr)) {
        fallback_.writeLine(when, addr, data, std::move(done));
        return;
    }
    bridged_.inc();
    EciBridgeTarget::WireOp op;
    op.write = true;
    op.line = addr - cfg_.window_base;
    op.srcPort = cfg_.port;
    op.data.assign(data, data + cache::lineSize);
    const std::uint64_t id = target_.registerOp(std::move(op));
    pending_[id] = Pending{nullptr, std::move(done)};
    eventq().schedule(
        std::max(when, now()),
        [this, id]() {
            sw_.sendFrom(cfg_.port,
                         bridgeHeaderBytes + cache::lineSize,
                         net::Switch::makeTag(target_.config().port,
                                              id));
        },
        "bridge-write-req");
}

void
EciBridgeSource::onFrame(Tick when, std::uint64_t, std::uint64_t user)
{
    const std::uint64_t id = user;
    auto it = pending_.find(id);
    ENZIAN_ASSERT(it != pending_.end(),
                  "bridge completion for unknown id %llu",
                  static_cast<unsigned long long>(id));
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (p.out) {
        auto data = target_.takeResult(id);
        ENZIAN_ASSERT(data.size() == cache::lineSize,
                      "bridge read without payload");
        std::memcpy(p.out, data.data(), cache::lineSize);
    }
    p.done(when);
}

} // namespace enzian::cluster
