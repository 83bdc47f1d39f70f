/**
 * @file
 * DRAM channel timing implementation.
 */

#include "mem/dram_channel.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/units.hh"
#include "obs/span_tracer.hh"

namespace enzian::mem {

DramChannel::DramChannel(std::string name, EventQueue &eq,
                         const Config &cfg)
    : SimObject(std::move(name), eq), cfg_(cfg)
{
    // DDR transfers twice per clock; MT/s already counts transfers.
    peakBw_ = cfg_.mega_transfers * 1e6 * cfg_.bus_bytes;
    effBw_ = peakBw_ * cfg_.efficiency;
    accessLatency_ = units::ns(cfg_.access_latency_ns);
    if (effBw_ <= 0)
        fatal("DRAM channel '%s': non-positive bandwidth",
              SimObject::name().c_str());
    refreshEv_.init(eq, [this]() { onRefresh(); }, "dram-refresh");
    stats().addCounter("requests", &reqs_);
    stats().addCounter("bytes", &bytes_);
    stats().addCounter("refreshes", &refreshes_);
    stats().addCounter("ecc_correctable", &eccCorrectable_);
    stats().addCounter("ecc_uncorrectable", &eccUncorrectable_);
    stats().addCounter("ecc_scrubs", &eccScrubs_);
    stats().addCounter("ecc_retries", &eccRetries_);
    stats().addAccumulator("latency_ns", &latency_);
    stats().addAccumulator("queue_wait_ns", &queueWait_);
    stats().addHistogram("latency_hist_ns", &latencyHist_);
}

Tick
DramChannel::access(Tick when, std::uint64_t bytes)
{
    reqs_.inc();
    bytes_.inc(bytes);
    // Command is accepted when the bus frees; data streams after the
    // access latency.
    const Tick start = std::max(when, busFreeAt_);
    const Tick stream = units::transferTicks(bytes, effBw_);
    busFreeAt_ = start + stream;
    Tick done = start + accessLatency_ + stream;
    const double lat_ns = units::toNanos(done - when);
    latency_.sample(lat_ns);
    latencyHist_.record((done - when) / units::psPerNs);
    queueWait_.sample(units::toNanos(start - when));
    ENZIAN_SPAN(name(), "burst", start, done);
    if (eccRng_)
        done = applyEcc(done, bytes);
    return done;
}

void
DramChannel::armEcc(Rng *rng, const EccConfig &ecc)
{
    eccRng_ = rng;
    ecc_ = ecc;
}

Tick
DramChannel::applyEcc(Tick done, std::uint64_t bytes)
{
    // One draw per access keeps the stream independent of burst size.
    const double p = eccRng_->uniform();
    if (p < ecc_.uncorrectable_prob) {
        // Uncorrectable: the controller replays the whole burst after
        // a recovery stall. The retry succeeds (the model injects
        // timing, never silent corruption).
        eccUncorrectable_.inc();
        eccRetries_.inc();
        const Tick restart = busFreeAt_ + ecc_.retry_penalty;
        const Tick stream = units::transferTicks(bytes, effBw_);
        busFreeAt_ = restart + stream;
        done = restart + accessLatency_ + stream;
        ENZIAN_SPAN(name(), "ecc-retry", restart, done);
        return done;
    }
    if (p < ecc_.uncorrectable_prob + ecc_.correctable_prob) {
        // Correctable flip: data is fixed in flight; a demand scrub
        // writes the corrected line back, briefly extending the bus.
        eccCorrectable_.inc();
        eccScrubs_.inc();
        busFreeAt_ += ecc_.scrub_penalty;
        done += ecc_.scrub_penalty;
        ENZIAN_SPAN(name(), "ecc-scrub", done - ecc_.scrub_penalty,
                    done);
    }
    return done;
}

void
DramChannel::enableRefresh(Tick until, Tick period, Tick penalty)
{
    if (period == 0)
        fatal("DRAM channel '%s': zero refresh period",
              name().c_str());
    refreshPeriod_ = period;
    refreshPenalty_ = penalty;
    refreshUntil_ = until;
    const Tick first = now() + period;
    if (first <= until)
        refreshEv_.reschedule(first);
}

void
DramChannel::onRefresh()
{
    // tRFC: all banks are busy refreshing, so the data bus extends
    // past any in-flight burst by the refresh penalty.
    refreshes_.inc();
    busFreeAt_ = std::max(busFreeAt_, now()) + refreshPenalty_;
    const Tick next = now() + refreshPeriod_;
    if (next <= refreshUntil_)
        refreshEv_.schedule(next);
}

DramSystem::DramSystem(std::string name, EventQueue &eq,
                       std::uint32_t channels,
                       const DramChannel::Config &cfg)
{
    if (channels == 0)
        fatal("DramSystem with zero channels");
    for (std::uint32_t i = 0; i < channels; ++i) {
        channels_.push_back(std::make_unique<DramChannel>(
            name + ".ch" + std::to_string(i), eq, cfg));
    }
}

Tick
DramSystem::access(Tick when, std::uint64_t bytes)
{
    // A large burst is striped across all channels; a cache-line-sized
    // access lands on one channel (round-robin stands in for the
    // address interleave).
    const auto n = static_cast<std::uint32_t>(channels_.size());
    if (bytes <= 128 || n == 1) {
        Tick done = channels_[next_]->access(when, bytes);
        next_ = (next_ + 1) % n;
        return done;
    }
    const std::uint64_t per = (bytes + n - 1) / n;
    Tick done = when;
    std::uint64_t left = bytes;
    for (std::uint32_t i = 0; i < n && left > 0; ++i) {
        const std::uint64_t chunk = std::min(per, left);
        done = std::max(done, channels_[i]->access(when, chunk));
        left -= chunk;
    }
    return done;
}

double
DramSystem::effectiveBandwidth() const
{
    double sum = 0;
    for (const auto &c : channels_)
        sum += c->effectiveBandwidth();
    return sum;
}

} // namespace enzian::mem
