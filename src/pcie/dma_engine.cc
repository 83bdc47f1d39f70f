/**
 * @file
 * DMA engine implementation.
 */

#include "pcie/dma_engine.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "obs/span_tracer.hh"

namespace enzian::pcie {

namespace {

/** Doorbell + descriptor fetch + engine start of a quiet engine. */
Tick
setupTicks(const DmaEngine::Config &cfg)
{
    return units::ns(cfg.doorbell_ns) + units::ns(cfg.descriptor_fetch_ns) +
           units::ns(cfg.engine_setup_ns);
}

} // namespace

DmaEngine::DmaEngine(std::string name, EventQueue &eq, PcieLink &link,
                     mem::MemoryController &host,
                     mem::MemoryController &device, const Config &cfg)
    : SimObject(std::move(name), eq), cfg_(cfg), link_(link),
      host_(host), device_(device)
{
    stats().addCounter("transfers", &xfers_);
    stats().addCounter("bytes", &bytes_);
    stats().addAccumulator("latency_ns", &latency_);
}

Tick
DmaEngine::minCrossLatency(const Config &cfg, const PcieLink::Config &link)
{
    return std::min({setupTicks(cfg), units::ns(cfg.per_descriptor_ns),
                     units::ns(link.latency_ns)});
}

void
DmaEngine::bindDomains(sim::DomainScheduler &sched,
                       sim::TimingDomain &device_domain,
                       sim::TimingDomain &host_domain)
{
    ENZIAN_ASSERT(&device_domain.queue() == &eventq(),
                  "DMA engine '%s' bound to a foreign device domain",
                  name().c_str());
    const Tick floor = minCrossLatency(cfg_, link_.config());
    ENZIAN_ASSERT(sched.lookahead() <= floor,
                  "scheduler lookahead exceeds the latency floor of "
                  "DMA engine '%s'",
                  name().c_str());
    dirBind_.bind(sched, device_domain, host_domain, floor);
}

void
DmaEngine::post(std::size_t to, Tick when, EventFn fn)
{
    if (dirBind_.bound())
        dirBind_.channel(to ^ 1).push(when, std::move(fn));
    else
        eventq().schedule(when, std::move(fn), "dma-step");
}

Tick
DmaEngine::transferLatency(std::uint64_t len) const
{
    const std::uint64_t wire =
        wireBytesFor(len, link_.config().max_payload);
    return setupTicks(cfg_) +
           units::transferTicks(wire, link_.wireBandwidth()) +
           link_.latency();
}

void
DmaEngine::transfer(Addr dev_off, Addr host_off, std::uint64_t len,
                    bool to_host, Done done)
{
    xfers_.inc();

    // Timing. The first transfer in a quiet engine pays the full
    // setup; pipelined transfers are gated by per-descriptor
    // processing plus link occupancy.
    const Tick submitted = now();
    Tick start;
    if (engineFreeAt_ <= submitted) {
        start = submitted + setupTicks(cfg_);
    } else {
        start = engineFreeAt_ + units::ns(cfg_.per_descriptor_ns);
    }
    engineFreeAt_ = std::max(engineFreeAt_, start);
    // The three stages (source DRAM, wire, destination DRAM) stream
    // concurrently chunk by chunk; the slowest stage dominates. The
    // host stage is timed by the host half, at the start tick.
    const Tick wire_done = link_.transfer(start, len, to_host);
    const Tick dev_done = device_.dram().access(start, len);

    std::vector<std::uint8_t> buf(len);
    if (to_host)
        device_.store().read(dev_off, buf.data(), len);
    post(1, start,
         [this, dev_off, host_off, len, to_host, submitted, start,
          device_ready = std::max(wire_done, dev_done),
          buf = std::move(buf), done = std::move(done)]() mutable {
             if (to_host)
                 host_.store().write(host_off, buf.data(), len);
             else
                 host_.store().read(host_off, buf.data(), len);
             const Tick complete =
                 std::max(device_ready, host_.dram().access(start, len));
             post(0, complete,
                  [this, dev_off, len, to_host, submitted, complete,
                   buf = std::move(buf), done = std::move(done)]() {
                      if (!to_host)
                          device_.store().write(dev_off, buf.data(),
                                                len);
                      bytes_.inc(len);
                      latency_.sample(
                          units::toNanos(complete - submitted));
                      ENZIAN_SPAN(name(), to_host ? "d2h" : "h2d",
                                  submitted, complete);
                      done(complete);
                  });
         });
}

void
DmaEngine::hostToDevice(Addr host_off, Addr dev_off, std::uint64_t len,
                        Done done)
{
    transfer(dev_off, host_off, len, /*to_host=*/false, std::move(done));
}

void
DmaEngine::deviceToHost(Addr dev_off, Addr host_off, std::uint64_t len,
                        Done done)
{
    transfer(dev_off, host_off, len, /*to_host=*/true, std::move(done));
}

} // namespace enzian::pcie
