/**
 * @file
 * TelemetrySession implementation.
 */

#include "obs/telemetry.hh"

#include <algorithm>

namespace mintcb::obs
{

TelemetrySession::TelemetrySession(machine::Machine &machine,
                                   SpanTracer &tracer,
                                   MetricsRegistry &metrics)
    : machine_(machine), tracer_(tracer), metrics_(metrics),
      syncSpans_(tracer)
{
    clock_ = &machine;
    memGranted_ = &metrics_.counter(
        "mintcb_mem_accesses_total",
        "Per-page memory accesses seen by the access-control check",
        {{"outcome", "granted"}});
    memDenied_ = &metrics_.counter(
        "mintcb_mem_accesses_total",
        "Per-page memory accesses seen by the access-control check",
        {{"outcome", "denied"}});
    lpcTransfers_ = &metrics_.counter(
        "mintcb_lpc_transfers_total", "LPC bus transfers");
    lpcBytes_ = &metrics_.counter(
        "mintcb_lpc_bytes_total", "Bytes moved across the LPC bus");
    tpmLatency_ = &metrics_.histogram(
        "mintcb_tpm_command_latency",
        "TPM command execution latency (queueing excluded)");
    tpmQueueWait_ = &metrics_.histogram(
        "mintcb_tpm_command_queue_wait",
        "Wait behind another CPU's in-flight TPM command");
}

TelemetrySession::~TelemetrySession()
{
    detach();
}

void
TelemetrySession::attach(sea::ExecutionService &service)
{
    service_ = &service;
    service.observers().add(this);
    service.executive().syncObservers().add(this);
    machine_.memctrl().accessObservers().add(this);
    machine_.lpc().transferObservers().add(this);
    if (machine_.hasTpm())
        machine_.tpm().commandObservers().add(this);
    if (!bridged_) {
        bridged_ = true;
        bridgeCounters(metrics_, machine_.memctrl().stats());
        if (machine_.hasTpm())
            bridgeCounters(metrics_, machine_.tpm().stats());
    }
}

void
TelemetrySession::detach()
{
    if (service_) {
        service_->observers().remove(this);
        service_->executive().syncObservers().remove(this);
    }
    machine_.memctrl().accessObservers().remove(this);
    machine_.lpc().transferObservers().remove(this);
    if (machine_.hasTpm())
        machine_.tpm().commandObservers().remove(this);
    if (service_)
        tracer_.closeAll(machine_.now());
    service_ = nullptr;
    syncSpans_.reset();
    requestSpans_.clear();
}

std::vector<std::pair<std::uint32_t, std::string>>
TelemetrySession::trackNames() const
{
    std::vector<std::pair<std::uint32_t, std::string>> names;
    for (std::size_t c = 0; c < machine_.cpuCount(); ++c)
        names.emplace_back(static_cast<std::uint32_t>(c),
                           "cpu " + std::to_string(c));
    names.emplace_back(track::tpm, "tpm");
    names.emplace_back(track::lpc, "lpc bus");
    names.emplace_back(track::service, "execution service");
    names.emplace_back(track::scheduler, "scheduler");
    names.emplace_back(track::requests, "requests");
    for (std::uint32_t s : shardIds_)
        names.emplace_back(track::shardBase + s, "shard " + std::to_string(s));
    for (std::size_t b = 0; b < backendNames_.size(); ++b) {
        names.emplace_back(
            track::backendBase + static_cast<std::uint32_t>(b),
            "backend " + backendNames_[b]);
    }
    return names;
}

std::uint32_t
TelemetrySession::backendTrack(const std::string &backend)
{
    for (std::size_t b = 0; b < backendNames_.size(); ++b) {
        if (backendNames_[b] == backend)
            return track::backendBase + static_cast<std::uint32_t>(b);
    }
    backendNames_.push_back(backend);
    return track::backendBase +
           static_cast<std::uint32_t>(backendNames_.size() - 1);
}

void
TelemetrySession::onPalEvent(rec::ExecEvent event, CpuId cpu,
                             const rec::Secb &secb)
{
    metrics_
        .counter("mintcb_exec_events_total",
                 "PAL life-cycle events by kind",
                 {{"event", rec::execEventName(event)}})
        .inc();
    TraceEventSource::onPalEvent(event, cpu, secb);
}

void
TelemetrySession::onTraceEvent(verify::TraceEvent e)
{
    syncSpans_.add(e);
}

void
TelemetrySession::onSubmit(std::uint64_t id, const std::string &pal)
{
    const std::uint64_t span = tracer_.beginAsync(
        track::requests, "request:" + pal, "sea", machine_.now(), id);
    requestSpans_.emplace_back(id, span);
}

void
TelemetrySession::onRequestDone(const sea::ExecutionReport &report)
{
    for (auto it = requestSpans_.begin(); it != requestSpans_.end();
         ++it) {
        if (it->first == report.requestId) {
            tracer_.annotate(it->second, "ok",
                             report.status.ok() ? "true" : "false");
            tracer_.endAsync(it->second, report.finishedAt);
            requestSpans_.erase(it);
            break;
        }
    }
    // Per-backend series: every report says which TEE cost model ran
    // it, so backends become label values, not separate metric names.
    if (!report.backend.empty()) {
        metrics_
            .counter("mintcb_backend_requests_total",
                     "Requests completed per execution backend",
                     {{"backend", report.backend}})
            .inc();
        metrics_
            .histogram("mintcb_backend_turnaround",
                       "Request start -> finish per execution backend",
                       {{"backend", report.backend}})
            .add(report.finishedAt - report.startedAt);
        // Async pair, not a complete span: preemptible requests on the
        // same backend overlap freely on the shared swim-lane.
        const std::uint64_t id = tracer_.beginAsync(
            backendTrack(report.backend), "be:" + report.palName,
            "backend", report.startedAt, report.requestId);
        tracer_.annotate(id, "launch", report.phases.launch.str());
        tracer_.annotate(id, "compute", report.phases.compute.str());
        tracer_.annotate(id, "transition",
                         report.phases.transition.str());
        tracer_.annotate(id, "attestation",
                         report.phases.attestation.str());
        tracer_.annotate(id, "teardown", report.phases.teardown.str());
        tracer_.endAsync(id, report.finishedAt);
    }
}

void
TelemetrySession::onShardCreated(std::uint32_t shard,
                                 machine::Machine &machine,
                                 rec::SecureExecutive &exec)
{
    (void)exec;
    if (std::find(shardIds_.begin(), shardIds_.end(), shard) !=
        shardIds_.end()) {
        return;
    }
    shardIds_.push_back(shard);
    // The shard owns a whole private TPM; surface its traffic as a
    // labeled series next to the front machine's.
    if (machine.hasTpm()) {
        bridgeCounters(metrics_, machine.tpm().stats(),
                       {{"shard", std::to_string(shard)}});
    }
    const std::uint64_t id = tracer_.instant(
        track::shardBase + shard, "shard:create", "sea", machine_.now());
    tracer_.annotate(id, "shard", std::to_string(shard));
}

void
TelemetrySession::onShardCommit(std::uint32_t shard,
                                std::size_t completed, TimePoint begin,
                                TimePoint end)
{
    metrics_
        .counter("mintcb_shard_commits_total",
                 "Shard campaigns committed by the merge sequencer",
                 {{"shard", std::to_string(shard)}})
        .inc();
    metrics_
        .counter("mintcb_shard_reports_total",
                 "ExecutionReports committed per shard",
                 {{"shard", std::to_string(shard)}})
        .inc(completed);
    const std::uint64_t id = tracer_.completeSpan(
        track::shardBase + shard, "shard:" + std::to_string(shard), "sea",
        begin, end);
    tracer_.annotate(id, "completed", std::to_string(completed));
}

void
TelemetrySession::onAccess(const machine::Agent &agent, PageNum page,
                           std::uint32_t offset, std::uint32_t len,
                           bool isWrite, bool granted)
{
    (void)agent;
    (void)page;
    (void)offset;
    (void)len;
    (void)isWrite;
    (granted ? memGranted_ : memDenied_)->inc();
}

void
TelemetrySession::onTransfer(std::uint64_t bytes, TimePoint start,
                             Duration cost)
{
    lpcTransfers_->inc();
    lpcBytes_->inc(bytes);
    const std::uint64_t id = tracer_.completeSpan(
        track::lpc, "lpc:transfer", "lpc", start, start + cost);
    tracer_.annotate(id, "bytes", std::to_string(bytes));
}

void
TelemetrySession::onCommand(const char *op, TimePoint issued,
                            TimePoint start, TimePoint end)
{
    tpmLatency_->add(end - start);
    if (start > issued)
        tpmQueueWait_->add(start - issued);
    const std::uint64_t id =
        tracer_.completeSpan(track::tpm, op, "tpm", start, end);
    if (start > issued)
        tracer_.annotate(id, "queued", (start - issued).str());
}

} // namespace mintcb::obs
