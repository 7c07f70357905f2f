/**
 * @file
 * The one mapping from the sync-event stream (verify::TraceEvent) to
 * spans. Live TelemetrySession and spansFromTrace both draw through it,
 * so one `mintcb-lint --record` run feeds both the temporal linter and
 * `mintcb-trace <file>` without re-executing, and draws what telemetry
 * drew live.
 */

#ifndef MINTCB_OBS_BRIDGE_HH
#define MINTCB_OBS_BRIDGE_HH

#include <map>
#include <string>

#include "obs/span.hh"
#include "verify/trace.hh"

namespace mintcb::obs
{

/**
 * TraceEvent -> span. PAL slices "pal:<name>" nest on their CPU's track
 * from SLAUNCH to SYIELD/SFREE/SKILL, correlated by request id; open
 * slices are keyed by CPU, which runs one PAL at a time. Drains span
 * the service track and their scheduler rounds the scheduler track
 * ("round 0" from drain begin, "round N" from the Nth barrier); session
 * and audit milestones are service-track instants.
 */
class SyncSpanMapping
{
  public:
    explicit SyncSpanMapping(SpanTracer &tracer) : tracer_(tracer) {}

    void add(const verify::TraceEvent &e);

    /** Forget every open span (once the tracer has closed them). */
    void reset();

  private:
    struct Slice
    {
        std::uint64_t requestId = 0;
        std::string pal;
        std::uint64_t span = 0;
    };

    SpanTracer &tracer_;
    std::map<CpuId, Slice> slices_; //!< open PAL slice per CPU
    std::uint64_t drain_ = 0;
    std::uint64_t round_ = 0;
    std::uint64_t roundIndex_ = 0;
};

/** Replay @p trace into @p tracer through SyncSpanMapping. Spans a
 *  truncated trace leaves open stay open (SpanTracer::openCount()).
 *  Returns the number of spans completed. */
std::size_t spansFromTrace(const verify::ExecutionTrace &trace,
                           SpanTracer &tracer);

/** The first difference between the CPU, scheduler and service tracks
 *  of @p live and @p replay (completion order; name, track, begin, end,
 *  correlation, annotations), or empty. */
std::string syncSpanDiff(const SpanTracer &live, const SpanTracer &replay);

} // namespace mintcb::obs

#endif // MINTCB_OBS_BRIDGE_HH
