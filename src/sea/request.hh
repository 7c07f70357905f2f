/**
 * @file
 * The unified PAL request/response API.
 *
 * One request type and one report type front every execution backend in
 * the registry (backend/registry.hh): the one-shot SEA path (Section 4's
 * measured reality), the multi-PAL service on the recommended hardware
 * (Section 5/6's proposal), and the simulated modern-TEE cost models
 * (SGX process enclaves, SEV-SNP/TDX VM TEEs, TrustZone world switches).
 *
 * Callers describe *what* to run (a Pal, its input), *where* (a backend
 * name; empty means the native service scheduler), and *how it matters*
 * (deadline, priority, attestation). The report answers with the output,
 * a canonical PhaseBreakdown along the cost axes every TEE family shares
 * (launch / compute / transition / attestation / teardown), and
 * capability-tagged ReportSections carrying each backend's
 * family-specific costs, counters, and evidence. A backend populates
 * only the sections for capabilities it implements -- adding a backend
 * never widens these structs.
 */

#ifndef MINTCB_SEA_REQUEST_HH
#define MINTCB_SEA_REQUEST_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/simtime.hh"
#include "common/types.hh"
#include "sea/capability.hh"
#include "sea/pal.hh"
#include "tpm/tpm.hh"

namespace mintcb::rec
{
class PalHooks; // sea/ cannot depend on rec/ headers (layering)
}

namespace mintcb::sea
{

/** Work a service-backed PAL performs inside its protected slices,
 *  with sealed-state access through the hooks; returns the PAL output.
 *  (The one-shot backends use Pal::body() instead.) */
using SecureBody =
    std::function<Result<Bytes>(rec::PalHooks &, const Bytes &)>;

/** Everything the untrusted OS submits to run one PAL. Construct with
 *  the identity and input, then set the scheduling fields that matter:
 *
 *      PalRequest req(pal, input);
 *      req.priority = 2;
 *      req.deadline = machine.now() + Duration::seconds(5);
 */
struct PalRequest
{
    explicit PalRequest(Pal pal_, Bytes input_ = {})
        : pal(std::move(pal_)), input(std::move(input_))
    {
    }

    Pal pal;     //!< measured identity + one-shot behavior
    Bytes input; //!< parameters from the untrusted world

    /** Registered backend to execute on. Empty means the native
     *  recommended-hardware scheduler inside the execution service
     *  (equivalent to "rec-service"); any other name is resolved
     *  against the service's BackendRegistry at submit time. */
    std::string backend;

    /** Absolute virtual-time deadline; epoch (default) means none. */
    TimePoint deadline{};

    /** Higher runs sooner; the service ages waiting requests so low
     *  priorities cannot starve. */
    int priority = 0;

    /** Request attestation evidence as the PAL exits. Fails closed at
     *  submit when the chosen backend lacks Capability::attestation. */
    bool wantQuote = false;

    /** Shard-affinity key for the sharded execution service: requests
     *  with the same key always land on the same shard (one simulated
     *  machine + TPM), so work targeting the same sealed state never
     *  runs on two shards concurrently. 0 (default) derives the key
     *  from the PAL's name. */
    std::uint64_t affinity = 0;

    /** @name Service-backend execution shape.
     * The execution service runs PALs in preemptible slices; it needs
     * the compute demand up front and an optional slice-safe body.
     * @{ */
    std::size_t dataPages = 1;  //!< SECB data pages
    Duration slicedCompute{};   //!< preemptible compute demand
    SecureBody secureBody;      //!< runs on the final slice (may be null)
    /** @} */
};

/**
 * The canonical cross-architecture latency axes. Every TEE family pays
 * these five costs; only their magnitudes differ (the SoK's comparison
 * table). Family-specific detail lives in ExecutionReport::sections.
 */
struct PhaseBreakdown
{
    Duration launch;      //!< entering the protected environment
                          //!< (suspend+SKINIT, ECREATE..EINIT, VM
                          //!< launch-measure, TA session open)
    Duration compute;     //!< application-specific work
    Duration transition;  //!< boundary crossings while running (seal/
                          //!< unseal, ECALL/OCALL, VM exits, SMCs)
    Duration attestation; //!< evidence generation (when requested)
    Duration teardown;    //!< leaving the environment (resume OS,
                          //!< EREMOVE, TA session close)

    Duration total() const
    {
        return launch + compute + transition + attestation + teardown;
    }
};

/** The answer to one PalRequest. */
struct ExecutionReport
{
    std::uint64_t requestId = 0; //!< service-assigned; 0 for one-shot
    std::string palName;
    std::string backend;         //!< backend that executed the request
    Status status = okStatus();  //!< the PAL's application result

    Bytes output;         //!< PAL output to the untrusted OS
    Bytes palMeasurement; //!< SHA-1 identity of the measured code

    tpm::TpmQuote quote; //!< TPM-backed backends, when wantQuote
    bool quoted = false;

    PhaseBreakdown phases;

    /** Family-specific costs, counters, and evidence, keyed by the
     *  capability that produced them. A backend appends its sections
     *  in one fixed order so encodings stay deterministic. */
    std::vector<ReportSection> sections;

    /** The section for @p c, created (empty) on first use. */
    ReportSection &section(Capability c);
    /** The section for @p c, or nullptr when the backend has none. */
    const ReportSection *findSection(Capability c) const;

    /** @name Section lookups (zero / nullptr when absent). @{ */
    Duration cost(Capability c, const std::string &name) const;
    std::uint64_t count(Capability c, const std::string &name) const;
    const Bytes *evidence(Capability c, const std::string &name) const;
    /** @} */

    /** @name Service-side lifecycle timestamps (platform time). @{ */
    TimePoint submittedAt;
    TimePoint startedAt;  //!< first protected entry
    TimePoint finishedAt; //!< session end
    /** @} */

    Duration queueWait; //!< startedAt - submittedAt
    Duration total;     //!< finishedAt - startedAt

    std::uint64_t launches = 0; //!< protected entries (one-shot: 1)
    std::uint64_t yields = 0;   //!< preemptions + voluntary SYIELDs
    CpuId cpu = 0;              //!< core that ran (last ran) the PAL
    std::uint32_t shard = 0;    //!< sharded service: executing shard
                                //!< (deterministic affinity, not the
                                //!< host worker); 0 for inline drains

    /** True when no deadline was set or finishedAt met it. */
    bool deadlineMet = true;

    /** Deterministic byte serialization; byte-equal encodings mean
     *  byte-equal reports (the determinism tests compare these). */
    Bytes encode() const;
};

} // namespace mintcb::sea

#endif // MINTCB_SEA_REQUEST_HH
