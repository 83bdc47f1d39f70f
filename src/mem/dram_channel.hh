/**
 * @file
 * DDR4 channel timing model.
 *
 * A bandwidth/occupancy model: each channel has a fixed access latency
 * (row activation + CAS, folded into one constant) and a data-bus
 * occupancy proportional to the burst size. Back-to-back requests
 * queue behind the bus. This captures what the evaluation needs:
 * per-channel bandwidth ceilings and burst-size-dependent latency
 * (e.g. the 1 KiB bursts the 4bpp Fig-11 configuration performs).
 */

#ifndef ENZIAN_MEM_DRAM_CHANNEL_HH
#define ENZIAN_MEM_DRAM_CHANNEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "sim/sim_object.hh"

namespace enzian::mem {

/** Timing model for one DDR4 channel. */
class DramChannel : public SimObject
{
  public:
    /** Static configuration of a channel. */
    struct Config
    {
        /** Transfer rate in MT/s (e.g. 2133, 2400). */
        double mega_transfers = 2400;
        /** Bus width in bytes (DDR4 DIMM: 8). */
        std::uint32_t bus_bytes = 8;
        /** Closed-page access latency (ns), tRCD+tCAS+ctrl. */
        double access_latency_ns = 45.0;
        /** Fraction of peak bandwidth achievable (bank conflicts etc). */
        double efficiency = 0.80;
    };

    /** ECC fault-injection parameters (all off by default). */
    struct EccConfig
    {
        /** Per-access probability of a correctable flip. */
        double correctable_prob = 0.0;
        /** Per-access probability of an uncorrectable error. */
        double uncorrectable_prob = 0.0;
        /** Extra bus time to scrub after a corrected flip. */
        Tick scrub_penalty = units::ns(120.0);
        /** Bus stall before the retried burst of an uncorrectable. */
        Tick retry_penalty = units::ns(400.0);
    };

    DramChannel(std::string name, EventQueue &eq, const Config &cfg);

    /**
     * Timing for a burst of @p bytes starting at @p when: the channel
     * is busy until the data has streamed out; the returned tick is
     * when the last byte is available.
     */
    Tick access(Tick when, std::uint64_t bytes);

    /**
     * Arm ECC error injection drawing from @p rng (nullptr disarms).
     * A correctable error costs a scrub penalty; an uncorrectable one
     * forces a full retried burst. Timing-only: the retry always
     * succeeds, so data integrity is preserved — the faults show up
     * as latency tails and in the error accounting.
     */
    void armEcc(Rng *rng, const EccConfig &ecc);

    std::uint64_t eccCorrectable() const
    {
        return eccCorrectable_.value();
    }
    std::uint64_t eccUncorrectable() const
    {
        return eccUncorrectable_.value();
    }
    std::uint64_t eccScrubs() const { return eccScrubs_.value(); }
    std::uint64_t eccRetries() const { return eccRetries_.value(); }

    /**
     * Opt-in refresh modeling: every @p period (DDR4 tREFI, 7.8 us)
     * the channel blocks the data bus for @p penalty (tRFC) until
     * @p until. Bounded, not self-perpetuating, so EventQueue::run()
     * still drains. Driven by one reusable self-rescheduling event.
     */
    void enableRefresh(Tick until,
                       Tick period = units::us(7.8),
                       Tick penalty = units::ns(350.0));

    std::uint64_t refreshes() const { return refreshes_.value(); }

    /** Effective sustainable bandwidth in bytes/s. */
    double effectiveBandwidth() const { return effBw_; }

    /** Peak (pin) bandwidth in bytes/s. */
    double peakBandwidth() const { return peakBw_; }

    std::uint64_t bytesServed() const { return bytes_.value(); }
    std::uint64_t requests() const { return reqs_.value(); }

    /** Request-to-last-byte latency per access, in ns. */
    const Accumulator &latency() const { return latency_; }
    /** Time spent queued behind the data bus, in ns. */
    const Accumulator &queueWait() const { return queueWait_; }

  private:
    void onRefresh();
    Tick applyEcc(Tick done, std::uint64_t bytes);

    Config cfg_;
    double peakBw_;
    double effBw_;
    Tick accessLatency_;
    Tick busFreeAt_ = 0;
    /** Refresh parameters (active when refreshUntil_ > 0). */
    Tick refreshPeriod_ = 0;
    Tick refreshPenalty_ = 0;
    Tick refreshUntil_ = 0;
    Event refreshEv_;
    /** ECC injection stream; nullptr = no injection (the default). */
    Rng *eccRng_ = nullptr;
    EccConfig ecc_;
    Counter reqs_;
    Counter bytes_;
    Counter refreshes_;
    Counter eccCorrectable_;
    Counter eccUncorrectable_;
    Counter eccScrubs_;
    Counter eccRetries_;
    Accumulator latency_;
    Accumulator queueWait_;
    Histogram latencyHist_;
};

/**
 * A group of interleaved channels behaving as one memory system, as
 * both Enzian nodes have four DDR4 channels. Requests are spread
 * round-robin (the cache-line interleave of a real controller).
 */
class DramSystem
{
  public:
    DramSystem(std::string name, EventQueue &eq, std::uint32_t channels,
               const DramChannel::Config &cfg);

    /** Timing for @p bytes starting at @p when, striped over channels. */
    Tick access(Tick when, std::uint64_t bytes);

    /** Aggregate effective bandwidth (bytes/s). */
    double effectiveBandwidth() const;

    std::uint32_t channelCount() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    DramChannel &channel(std::uint32_t i) { return *channels_[i]; }

  private:
    std::vector<std::unique_ptr<DramChannel>> channels_;
    std::uint32_t next_ = 0;
};

} // namespace enzian::mem

#endif // ENZIAN_MEM_DRAM_CHANNEL_HH
