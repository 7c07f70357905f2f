/**
 * @file
 * TelemetrySession: one object that listens on every profiling hook the
 * platform exposes and turns the event stream into spans + metrics.
 *
 * Production layers (machine, tpm, rec, sea) each publish a tiny
 * observer interface and know nothing about obs; this class implements
 * all of them at once and wires itself into a Machine +
 * ExecutionService with attach(). Nothing here ever advances a virtual
 * clock, so an attached session changes no simulated timing and no
 * simulated behavior -- the same seed still produces byte-identical
 * ExecutionReports (bench_service_throughput --check proves it).
 *
 * Span layout (see obs/span.hh track ids):
 *
 *   CPU tracks (tid = CpuId)  nested "pal:<name>" slices between
 *                             SLAUNCH and SYIELD/SFREE/SKILL, tagged
 *                             with the request id their SECB carries
 *   track::tpm                one complete span per charged TPM
 *                             command (queueing wait annotated)
 *   track::lpc                one complete span per bus transfer
 *   track::service            drain() cycles, session/audit instants
 *   track::scheduler          scheduler rounds between barriers
 *   track::requests           async submit -> report span per request
 *
 * The CPU, scheduler and service tracks are the recorder's TraceEvents
 * drawn through obs::SyncSpanMapping, as spansFromTrace replays them.
 */

#ifndef MINTCB_OBS_TELEMETRY_HH
#define MINTCB_OBS_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "machine/lpc.hh"
#include "machine/machine.hh"
#include "machine/memctrl.hh"
#include "obs/bridge.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "tpm/tpm.hh"
#include "verify/trace.hh"

namespace mintcb::obs
{

/** The all-hooks listener. Attach, run a workload, read the tracer. */
class TelemetrySession final : public verify::TraceEventSource,
                               public machine::MemAccessObserver,
                               public machine::LpcObserver,
                               public tpm::TpmCommandObserver
{
  public:
    TelemetrySession(machine::Machine &machine, SpanTracer &tracer,
                     MetricsRegistry &metrics);
    /** Detaches from everything it attached to. */
    ~TelemetrySession() override;

    TelemetrySession(const TelemetrySession &) = delete;
    TelemetrySession &operator=(const TelemetrySession &) = delete;

    /** Wire this session into @p service (scheduling + transport
     *  milestones), its executive (PAL lifecycle), and the machine's
     *  memory controller, LPC bus, and TPM. Also bridges the
     *  component counter structs into the metrics registry. */
    void attach(sea::ExecutionService &service);

    /** Leave every hook this session joined and close any spans still
     *  open. Idempotent. */
    void detach();

    /** Track id -> display name pairs for exportChromeTrace(). */
    std::vector<std::pair<std::uint32_t, std::string>>
    trackNames() const;

    /** Counts the event by kind, then hands it to TraceEventSource. */
    void onPalEvent(rec::ExecEvent event, CpuId cpu,
                    const rec::Secb &secb) override;

    /** @name sea::ServiceObserver, beyond the sync-event stream @{ */
    void onSubmit(std::uint64_t id, const std::string &pal) override;
    void onRequestDone(const sea::ExecutionReport &report) override;
    /** Sharded drains: both hooks below run on the draining thread in
     *  deterministic shard order. The worker-thread hooks
     *  (onShardBegin/onShardEnd) keep their no-op defaults on purpose
     *  -- this session is not thread-safe and must never be called from
     *  a pool worker. */
    void onShardCreated(std::uint32_t shard, machine::Machine &machine,
                        rec::SecureExecutive &exec) override;
    void onShardCommit(std::uint32_t shard, std::size_t completed,
                       TimePoint begin, TimePoint end) override;
    /** @} */

    /** @name machine::MemAccessObserver @{ */
    void onAccess(const machine::Agent &agent, PageNum page,
                  std::uint32_t offset, std::uint32_t len, bool isWrite,
                  bool granted) override;
    /** @} */

    /** @name machine::LpcObserver @{ */
    void onTransfer(std::uint64_t bytes, TimePoint start,
                    Duration cost) override;
    /** @} */

    /** @name tpm::TpmCommandObserver @{ */
    void onCommand(const char *op, TimePoint issued, TimePoint start,
                   TimePoint end) override;
    /** @} */

  protected:
    void onTraceEvent(verify::TraceEvent e) override;

  private:
    /** Track id for @p backend (track::backendBase + first-seen
     *  index), registering the swim-lane on first use. */
    std::uint32_t backendTrack(const std::string &backend);

    machine::Machine &machine_;
    SpanTracer &tracer_;
    MetricsRegistry &metrics_;

    sea::ExecutionService *service_ = nullptr;

    SyncSpanMapping syncSpans_;
    /** In-flight async request spans: requestId -> span id. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> requestSpans_;

    bool bridged_ = false; //!< counter bridges registered once
    /** Shards whose machines have been bridged (track names + dedup). */
    std::vector<std::uint32_t> shardIds_;
    /** Backend names in first-seen order (index = track offset). */
    std::vector<std::string> backendNames_;

    /** Pre-resolved metric handles (hot paths stay cheap). @{ */
    Counter *memGranted_ = nullptr;
    Counter *memDenied_ = nullptr;
    Counter *lpcTransfers_ = nullptr;
    Counter *lpcBytes_ = nullptr;
    LatencyHistogram *tpmLatency_ = nullptr;
    LatencyHistogram *tpmQueueWait_ = nullptr;
    /** @} */
};

} // namespace mintcb::obs

#endif // MINTCB_OBS_TELEMETRY_HH
