/**
 * @file
 * Host-time span tracer of the benchmark.
 *
 * Spans wrap the benchmark's own calls into each simulator layer
 * (constructors, wiring, pre-fill, issue calls, run slices, registry
 * export). Each span has a layer, a name, start and end in host
 * nanoseconds, a parent span and an optional request id. Spans live
 * in per-thread buffers in memory and are written out at exit in the
 * Chrome/Perfetto trace-event JSON that obs::SpanTracer writes for
 * simulated time.
 *
 * Self time of a layer is a span's duration minus the part its child
 * spans on the same thread cover. Spans opened on domain worker
 * threads name the main thread's open run span as their parent but
 * are not subtracted from it: they overlap it in parallel.
 *
 * Disabled (the default), a Scope costs one relaxed atomic load.
 */

#ifndef SIMBENCH_TRACER_HH
#define SIMBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace simbench {

/** Process-wide host-time tracer. */
class HostTracer
{
  public:
    /** Turn recording on or off. */
    static void setEnabled(bool on);
    static bool enabled();

    /** Self seconds per layer and span count since the last reset.
     *  Read only while no worker thread is recording. */
    static std::map<std::string, double> selfSeconds();
    static std::uint64_t spanCount();
    static void resetTotals();

    /** Write every stored span as Chrome trace-event JSON. */
    static void writeChromeJson(std::ostream &os);

    /** One span: open on construction, closed on destruction. */
    class Scope
    {
      public:
        /**
         * @param layer simulator layer the wrapped call enters
         *        (a string literal)
         * @param name what the call does (a string literal)
         * @param req request id, 0 for none
         */
        Scope(const char *layer, const char *name, std::uint64_t req = 0);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        bool active_;
    };
};

} // namespace simbench

#endif // SIMBENCH_TRACER_HH
