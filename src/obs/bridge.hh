/**
 * @file
 * Bridge from a recorded verify::ExecutionTrace to the span tracer.
 *
 * One recorded run can now feed both offline consumers without
 * re-executing: mintcb-lint checks its temporal properties, and
 * mintcb-trace renders it as spans (--top attribution or Chrome JSON).
 * Every trace event carries its simulated time, which maps directly
 * onto span begin/end instants.
 */

#ifndef MINTCB_OBS_BRIDGE_HH
#define MINTCB_OBS_BRIDGE_HH

#include "obs/span.hh"
#include "verify/trace.hh"

namespace mintcb::obs
{

/** Replay @p trace into @p tracer: PAL slices become nested sync spans
 *  on their CPU track, drains land on the service track, barriers and
 *  session/exchange milestones become instants. Spans left open by a
 *  truncated trace are closed at the last event's time. Returns the
 *  number of spans added. */
std::size_t spansFromTrace(const verify::ExecutionTrace &trace,
                           SpanTracer &tracer);

} // namespace mintcb::obs

#endif // MINTCB_OBS_BRIDGE_HH
