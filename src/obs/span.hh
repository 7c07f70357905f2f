/**
 * @file
 * Sim-time span tracer.
 *
 * Spans are intervals of *simulated* time on a track (a CPU core, the
 * TPM chip, the LPC bus, the service loop...). The tracer never touches
 * a virtual clock -- instrumentation reads the clocks it already has
 * and reports begin/end instants -- so attaching it costs zero
 * simulated time by construction.
 *
 * Three span shapes cover everything the platform does:
 *
 *  - nested sync spans (beginSpan/endSpan): per-track LIFO, parented to
 *    the innermost open span on the same track (PAL slices on a core,
 *    drain cycles on the service track);
 *  - complete spans (completeSpan): begin and end known at once, no
 *    stack interaction (TPM commands, LPC transfers);
 *  - async spans (beginAsync/endAsync): may overlap arbitrarily and are
 *    matched by id, exported as Chrome async b/e pairs (one per
 *    in-flight PalRequest, submit -> report).
 *
 * exportChromeTrace() renders the standard trace-event JSON that
 * Perfetto / chrome://tracing load directly; table() and top() give a
 * flat per-span listing and a where-does-the-time-go attribution.
 */

#ifndef MINTCB_OBS_SPAN_HH
#define MINTCB_OBS_SPAN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/simtime.hh"

namespace mintcb::obs
{

/** Well-known track ids (Chrome tid). CPU cores use their CpuId. */
namespace track
{
constexpr std::uint32_t tpm = 100;
constexpr std::uint32_t lpc = 101;
constexpr std::uint32_t service = 102;
constexpr std::uint32_t scheduler = 103;
constexpr std::uint32_t requests = 104;
/** Network gateway: drain cycles, handshake verdicts, session
 *  admission (net/gateway.hh). */
constexpr std::uint32_t gateway = 105;
/** Sharded execution service: shard N's campaigns render on track
 *  shardBase + N (one swim-lane per shard, mirroring the one-lane-per
 *  host-worker view a wall-clock profiler would show). */
constexpr std::uint32_t shardBase = 200;
/** Execution backends (backend/registry.hh): the Nth distinct backend
 *  name a TelemetrySession sees gets track backendBase + N, one
 *  swim-lane per TEE family so a mixed-backend drain reads as a
 *  side-by-side cost comparison. */
constexpr std::uint32_t backendBase = 300;
} // namespace track

/** One recorded interval (or instant, when begin == end and instant
 *  is set). */
struct Span
{
    std::uint64_t id = 0;       //!< unique within the tracer, > 0
    std::uint64_t parent = 0;   //!< enclosing sync span id; 0 = root
    std::string name;           //!< e.g. "pal:worker-3" or "tpm:extend"
    std::string category;       //!< "rec", "tpm", "lpc", "sched", ...
    std::uint32_t track = 0;    //!< Chrome tid
    TimePoint begin;
    TimePoint end;
    bool async = false;         //!< exported as b/e instead of X
    bool instant = false;       //!< exported as a Chrome instant event
    /** Correlation id propagated through nested spans (PalRequest id);
     *  0 = none. */
    std::uint64_t correlation = 0;
    std::vector<std::pair<std::string, std::string>> args;

    Duration duration() const { return end - begin; }
};

/** Aggregate attribution for one span name. */
struct Attribution
{
    std::string name;
    std::string category;
    std::uint64_t count = 0;
    Duration total;
    Duration max;
};

/** The tracer: an append-only span log plus per-track open stacks. */
class SpanTracer
{
  public:
    /** Open a nested sync span on @p track. Returns the span id. */
    std::uint64_t beginSpan(std::uint32_t track, std::string name,
                            std::string category, TimePoint at,
                            std::uint64_t correlation = 0);

    /** Close span @p id at @p at. Closing a span that is not the
     *  innermost open span on its track also closes everything opened
     *  inside it (crash-style unwind), keeping the log well nested. */
    void endSpan(std::uint64_t id, TimePoint at);

    /** Record a begin-and-end-known interval; never touches the
     *  stacks, parented to the innermost open span on @p track. */
    std::uint64_t completeSpan(std::uint32_t track, std::string name,
                               std::string category, TimePoint begin,
                               TimePoint end,
                               std::uint64_t correlation = 0);

    /** Record an instant (zero-duration marker). */
    std::uint64_t instant(std::uint32_t track, std::string name,
                          std::string category, TimePoint at,
                          std::uint64_t correlation = 0);

    /** Open/close an overlap-capable async span (matched by id). */
    std::uint64_t beginAsync(std::uint32_t track, std::string name,
                             std::string category, TimePoint at,
                             std::uint64_t correlation = 0);
    void endAsync(std::uint64_t id, TimePoint at);

    /** Attach a key/value argument to an open or closed span. */
    void annotate(std::uint64_t id, const std::string &key,
                  const std::string &value);

    /** Close every open span (sync and async) at @p at. */
    void closeAll(TimePoint at);

    /** @name Inspection. @{ */
    /** Completed spans in completion order. */
    const std::vector<Span> &spans() const { return spans_; }
    std::size_t openCount() const;
    /** Innermost open sync span id on @p track (0 = none). */
    std::uint64_t currentSpan(std::uint32_t track) const;
    /** @} */

    /** @name Export. @{ */
    /** Chrome trace-event JSON (Perfetto / chrome://tracing). Track
     *  names from @p track_names (track id -> display name). */
    std::string exportChromeTrace(
        const std::vector<std::pair<std::uint32_t, std::string>>
            &track_names = {}) const;
    /** Flat per-span table, one line per span, begin-sorted. */
    std::string table() const;
    /** Attribution by span name, heaviest total first. */
    std::vector<Attribution> top() const;
    /** Rendered top() (the mintcb-trace --top output). */
    std::string topTable(std::size_t limit = 20) const;
    /** @} */

  private:
    struct OpenSpan
    {
        Span span;
        bool asyncSpan = false;
    };

    std::uint64_t nextId_ = 1;
    std::vector<Span> spans_;     //!< completed
    std::vector<OpenSpan> open_;  //!< sync: stack per track; async: any
};

} // namespace mintcb::obs

#endif // MINTCB_OBS_SPAN_HH
