/**
 * @file
 * Windowed latency recording against service-level objectives.
 *
 * The serving harness measures millions of request latencies per run,
 * from 1 us to 1 s and beyond; they land in the log-bucketed Histogram
 * of base/stats.hh, which covers the full Tick range at a bounded
 * <= 3.2% relative quantile error.
 *
 * SloRecorder aggregates latencies twice: cumulatively for the whole
 * run, and into tumbling sim-time windows aligned to absolute
 * multiples of the window width (so two runs that see the same
 * completions produce the same windows regardless of when recording
 * started). Each closed window reports p50/p99/p999/max/mean, the
 * exact SLO violation count (tested per sample, not read off the
 * histogram), and the error-budget burn rate: the fraction of the
 * window's requests over the SLO divided by the budget the quantile
 * target allows (1 - slo_quantile). Burn rate 1.0 means the window
 * consumed its budget exactly; sustained > 1.0 means the SLO is being
 * missed.
 *
 * The recorder owns a StatGroup ("load.slo.<name>") registered with
 * the global obs::Registry for its lifetime, so `enzstat`-style
 * exports see serving stats with zero wiring. It deliberately does
 * not touch the EventQueue — callers pass completion ticks in — so it
 * lives in obs below sim, like the rest of this library.
 */

#ifndef ENZIAN_OBS_SLO_HH
#define ENZIAN_OBS_SLO_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"

namespace enzian::obs {

/**
 * Records per-request latencies against an SLO, cumulatively and in
 * tumbling sim-time windows keyed by completion tick.
 */
class SloRecorder
{
  public:
    struct Config
    {
        /** Stat group suffix: registers as "load.slo.<name>". */
        std::string name = "serving";
        /** Tumbling window width. */
        Tick window = units::ms(10);
        /** Latency objective. */
        double slo_latency_us = 1000.0;
        /** Quantile the objective applies to (0.99 => p99 <= SLO). */
        double slo_quantile = 0.99;
    };

    /** One closed window's digest. */
    struct Window
    {
        Tick start;
        Tick end;
        std::uint64_t count;
        std::uint64_t violations;
        double p50_us;
        double p99_us;
        double p999_us;
        double max_us;
        double mean_us;
        double burn_rate;
    };

    explicit SloRecorder(Config cfg);
    ~SloRecorder();

    SloRecorder(const SloRecorder &) = delete;
    SloRecorder &operator=(const SloRecorder &) = delete;

    /**
     * Record one request that arrived at @p arrival and completed at
     * @p done. Completions must be fed in nondecreasing @p done order
     * (the natural order a simulation produces them in); a completion
     * landing past the open window closes it.
     */
    void record(Tick arrival, Tick done);

    /**
     * Close the window containing @p now (if it has samples) and any
     * open window before it. Call once at end of run so the final
     * partial window is reported.
     */
    void rollTo(Tick now);

    /** Closed windows in time order (empty windows are skipped). */
    const std::vector<Window> &windows() const { return windows_; }

    std::uint64_t totalCount() const { return total_.count(); }
    std::uint64_t totalViolations() const { return totalViolations_; }

    /** Whole-run quantile, microseconds. */
    double quantileUs(double q) const
    {
        return units::toMicros(total_.quantile(q));
    }
    double p50Us() const { return quantileUs(0.50); }
    double p99Us() const { return quantileUs(0.99); }
    double p999Us() const { return quantileUs(0.999); }
    double maxUs() const { return units::toMicros(total_.maxValue()); }
    double meanUs() const { return total_.meanTicks() / 1e6; }

    /** Does the whole run meet the SLO at the configured quantile? */
    bool sloMet() const
    {
        return total_.count() > 0 &&
               quantileUs(cfg_.slo_quantile) <= cfg_.slo_latency_us;
    }

    /** Whole-run error-budget burn rate. */
    double burnRate() const;

    /** The latency objective in ticks. */
    Tick sloLatencyTicks() const { return sloTicks_; }

    const Config &config() const { return cfg_; }

    /**
     * CSV of the closed windows:
     * window_start_us,window_end_us,count,violations,p50_us,p99_us,
     * p999_us,max_us,mean_us,burn_rate
     */
    void writeCsv(std::ostream &os) const;

  private:
    void closeWindow();
    double windowBudget() const { return 1.0 - cfg_.slo_quantile; }

    Config cfg_;
    Tick sloTicks_;

    Histogram total_;
    std::uint64_t totalViolations_ = 0;

    bool windowOpen_ = false;
    Tick windowIdx_ = 0;
    Histogram windowHist_;
    std::uint64_t windowViolations_ = 0;
    std::vector<Window> windows_;

    StatGroup stats_;
    Counter requests_;
    Counter violations_;
    Gauge windowP99Us_;
    Gauge windowBurnRate_;
};

} // namespace enzian::obs

#endif // ENZIAN_OBS_SLO_HH
