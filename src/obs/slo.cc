/**
 * @file
 * SloRecorder implementation.
 */

#include "obs/slo.hh"

#include <cstdio>

#include "base/logging.hh"
#include "obs/registry.hh"

namespace enzian::obs {

SloRecorder::SloRecorder(Config cfg)
    : cfg_(std::move(cfg)), sloTicks_(units::us(cfg_.slo_latency_us)),
      stats_("load.slo." + cfg_.name)
{
    if (cfg_.window == 0)
        fatal("slo recorder '%s': window width must be nonzero",
              cfg_.name.c_str());
    if (cfg_.slo_quantile <= 0.0 || cfg_.slo_quantile >= 1.0)
        fatal("slo recorder '%s': slo_quantile must be in (0, 1)",
              cfg_.name.c_str());
    stats_.addCounter("requests", &requests_);
    stats_.addCounter("slo_violations", &violations_);
    stats_.addGauge("window_p99_us", &windowP99Us_);
    stats_.addGauge("window_burn_rate", &windowBurnRate_);
    Registry::global().add(&stats_);
}

SloRecorder::~SloRecorder()
{
    Registry::global().remove(&stats_);
}

void
SloRecorder::record(Tick arrival, Tick done)
{
    const Tick latency = done >= arrival ? done - arrival : 0;
    const Tick idx = done / cfg_.window;
    if (windowOpen_ && idx != windowIdx_)
        closeWindow();
    if (!windowOpen_) {
        windowOpen_ = true;
        windowIdx_ = idx;
    }

    windowHist_.record(latency);
    total_.record(latency);
    requests_.inc();
    if (latency > sloTicks_) {
        ++windowViolations_;
        ++totalViolations_;
        violations_.inc();
    }
}

void
SloRecorder::rollTo(Tick now)
{
    if (windowOpen_ && now / cfg_.window >= windowIdx_)
        closeWindow();
}

void
SloRecorder::closeWindow()
{
    Window w;
    w.start = windowIdx_ * cfg_.window;
    w.end = w.start + cfg_.window;
    w.count = windowHist_.count();
    w.violations = windowViolations_;
    w.p50_us = units::toMicros(windowHist_.quantile(0.50));
    w.p99_us = units::toMicros(windowHist_.quantile(0.99));
    w.p999_us = units::toMicros(windowHist_.quantile(0.999));
    w.max_us = units::toMicros(windowHist_.maxValue());
    w.mean_us = windowHist_.meanTicks() / 1e6;
    const double frac =
        w.count ? static_cast<double>(w.violations) /
                      static_cast<double>(w.count)
                : 0.0;
    w.burn_rate = frac / windowBudget();
    windows_.push_back(w);

    windowP99Us_.set(w.p99_us);
    windowBurnRate_.set(w.burn_rate);

    windowHist_.reset();
    windowViolations_ = 0;
    windowOpen_ = false;
}

double
SloRecorder::burnRate() const
{
    const std::uint64_t n = total_.count();
    if (n == 0)
        return 0.0;
    const double frac = static_cast<double>(totalViolations_) /
                        static_cast<double>(n);
    return frac / windowBudget();
}

void
SloRecorder::writeCsv(std::ostream &os) const
{
    os << "window_start_us,window_end_us,count,violations,p50_us,"
          "p99_us,p999_us,max_us,mean_us,burn_rate\n";
    char line[320];
    for (const Window &w : windows_) {
        std::snprintf(line, sizeof(line),
                      "%.3f,%.3f,%llu,%llu,%.3f,%.3f,%.3f,%.3f,%.3f,"
                      "%.4f\n",
                      units::toMicros(w.start), units::toMicros(w.end),
                      static_cast<unsigned long long>(w.count),
                      static_cast<unsigned long long>(w.violations),
                      w.p50_us, w.p99_us, w.p999_us, w.max_us,
                      w.mean_us, w.burn_rate);
        os << line;
    }
}

} // namespace enzian::obs
