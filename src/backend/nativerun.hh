/**
 * @file
 * The native request path, written once.
 *
 * A native request ("" or "rec-service") runs as one program of a
 * scheduler campaign: the execution service's shared one, or the
 * standalone rec-service backend's own. Both map the request to a
 * rec::PalProgram, and its PalCompletion to an ExecutionReport, through
 * these two functions.
 */

#ifndef MINTCB_BACKEND_NATIVERUN_HH
#define MINTCB_BACKEND_NATIVERUN_HH

#include "machine/machine.hh"
#include "rec/scheduler.hh"
#include "sea/request.hh"

namespace mintcb::backend
{

/** What one native request's hooks record for its report. The hooks
 *  write through it, so it must not move until the campaign has run. */
struct NativeSlot
{
    TimePoint submittedAt; //!< set by the caller
    Duration compute;      //!< the program's compute demand
    TimePoint startedAt;   //!< first protected slice
    bool started = false;
    Bytes output;          //!< the secure body's result
};

/**
 * The scheduler program for @p request: its Pal, data pages, priority,
 * deadline, quote flag and compute demand (@p default_compute when the
 * request sets none). The first slice extends the PAL's sePCR with the
 * input digest; the final slice runs the secure body, then extends the
 * sePCR with the output digest. @p request must outlive the campaign.
 */
rec::PalProgram nativeProgram(machine::Machine &machine,
                              const sea::PalRequest &request,
                              Duration default_compute, NativeSlot &slot);

/** The report fields both native paths derive from @p slot and
 *  @p done; callers add their own (request id and shard, or phases and
 *  extra sections). */
sea::ExecutionReport nativeReport(const NativeSlot &slot,
                                  const rec::PalCompletion &done);

} // namespace mintcb::backend

#endif // MINTCB_BACKEND_NATIVERUN_HH
