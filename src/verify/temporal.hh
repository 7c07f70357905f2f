/**
 * @file
 * Temporal-property checks over recorded execution traces.
 *
 * The properties are liveness/ordering claims the paper's Figure 6 state
 * machine and the transport-session protocol make but that no single
 * point-in-time invariant can see:
 *
 *  - every SLAUNCH is eventually paired with an SFREE or SKILL (no PAL
 *    still holds pages or an sePCR when the run ends),
 *  - the per-PAL event sequence respects the Start/Execute/Suspend/Done
 *    lifecycle (rec::checkTransition is the oracle),
 *  - the TPM transport is never used after the session closed, and
 *    never resumed before it was opened.
 *
 * Lifecycles are keyed by (request id, PAL name), so service
 * recordings may reuse a PAL name across requests; traces without
 * request ids (synthetic ones, a bare SecureExecutive's) key by name.
 */

#ifndef MINTCB_VERIFY_TEMPORAL_HH
#define MINTCB_VERIFY_TEMPORAL_HH

#include <string>
#include <vector>

#include "sea/service.hh"
#include "verify/trace.hh"

namespace mintcb::verify
{

/** One violated temporal property. */
struct TemporalFinding
{
    std::string property; //!< short property tag
    std::uint64_t seq = 0;//!< trace position (size() for end-of-trace)
    std::string detail;

    std::string str() const;
};

/** All findings for one trace (empty = every property holds). */
struct TemporalReport
{
    std::vector<TemporalFinding> findings;

    bool ok() const { return findings.empty(); }
    std::string str() const;
};

/** Check every temporal property against @p trace. */
TemporalReport checkTemporal(const ExecutionTrace &trace);

/**
 * Arithmetic sanity over a service's cumulative counters (the metrics
 * half of a recorded run): completions never exceed submissions,
 * failures and missed deadlines never exceed completions, and
 * pipelining can only *reduce* exchanges below the command count.
 */
TemporalReport lintMetrics(const sea::ServiceMetrics &metrics);

} // namespace mintcb::verify

#endif // MINTCB_VERIFY_TEMPORAL_HH
