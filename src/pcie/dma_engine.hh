/**
 * @file
 * Descriptor-ring DMA engine model.
 *
 * Captures the cost structure that separates PCIe accelerators from
 * ECI in Figure 6: every transfer pays a doorbell MMIO write, a
 * descriptor fetch, and engine setup before the wire time, so small
 * transfers are latency- and rate-limited, while large transfers
 * amortize the overheads and approach wire bandwidth. Back-to-back
 * transfers pipeline through the ring: sustained throughput is bound
 * by per-descriptor processing, not by the full setup latency.
 *
 * A transfer has a device half (the engine's queue: link, device
 * DRAM, completion) and a host half (host DRAM timing and the
 * host-store copy) that runs at the transfer's start tick. On one
 * queue the host half is scheduled there too; when the host memory
 * lives in another timing domain (bindDomains) it is pushed through
 * that domain's channel and the completion comes back the same way.
 * The transfer code is the same either way.
 */

#ifndef ENZIAN_PCIE_DMA_ENGINE_HH
#define ENZIAN_PCIE_DMA_ENGINE_HH

#include <functional>

#include "mem/memory_controller.hh"
#include "pcie/pcie_link.hh"
#include "sim/domain_binding.hh"

namespace enzian::pcie {

/** DMA engine moving data between host and device memory over PCIe. */
class DmaEngine : public SimObject
{
  public:
    using Done = std::function<void(Tick)>;

    /** Engine cost configuration. */
    struct Config
    {
        /** Doorbell MMIO write latency (ns). */
        double doorbell_ns = 250.0;
        /** Descriptor fetch round trip (ns). */
        double descriptor_fetch_ns = 600.0;
        /** Engine start/teardown per transfer (ns). */
        double engine_setup_ns = 350.0;
        /** Per-descriptor processing when pipelined (ns). */
        double per_descriptor_ns = 450.0;
    };

    /** @param eq the device side's queue (link, device memory) */
    DmaEngine(std::string name, EventQueue &eq, PcieLink &link,
              mem::MemoryController &host, mem::MemoryController &device,
              const Config &cfg);

    /**
     * Shortest distance from one half of a transfer to the tick the
     * other half runs at: a submit starts the host half at least the
     * setup (idle engine) or one descriptor time (busy engine) later,
     * and the completion is at least one PCIe one-way latency after
     * the host half.
     */
    static Tick minCrossLatency(const Config &cfg,
                                const PcieLink::Config &link);

    /**
     * Run the host half in @p host_domain; @p device_domain must own
     * this engine's queue. The scheduler's lookahead must not exceed
     * minCrossLatency(). Must precede the scheduler start.
     */
    void bindDomains(sim::DomainScheduler &sched,
                     sim::TimingDomain &device_domain,
                     sim::TimingDomain &host_domain);

    /** Copy @p len bytes host->device (functional + timed). */
    void hostToDevice(Addr host_off, Addr dev_off, std::uint64_t len,
                      Done done);

    /** Copy @p len bytes device->host (functional + timed). */
    void deviceToHost(Addr dev_off, Addr host_off, std::uint64_t len,
                      Done done);

    /**
     * Unpipelined latency of one transfer of @p len bytes (for
     * latency-style microbenchmarks): full setup + wire + memory.
     */
    Tick transferLatency(std::uint64_t len) const;

    std::uint64_t transfers() const { return xfers_.value(); }

    /** Device-side memory behind this engine (device domain). */
    mem::MemoryController &device() { return device_; }

  private:
    void transfer(Addr dev_off, Addr host_off, std::uint64_t len,
                  bool to_host, Done done);
    /** Run @p fn at @p when on side @p to (0 device, 1 host). */
    void post(std::size_t to, Tick when, EventFn fn);

    Config cfg_;
    /** Side 0 = device domain, side 1 = host domain (when bound). */
    sim::DirDomainBinding dirBind_;
    PcieLink &link_;
    mem::MemoryController &host_;
    mem::MemoryController &device_;
    Tick engineFreeAt_ = 0;
    Counter xfers_;
    Counter bytes_;
    /** Submit-to-completion latency per transfer, ns. */
    Accumulator latency_;
};

} // namespace enzian::pcie

#endif // ENZIAN_PCIE_DMA_ENGINE_HH
