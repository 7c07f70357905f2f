/**
 * @file
 * Multi-PAL execution service implementation.
 *
 * A drain is one scheduling campaign: every claimed PalRequest becomes
 * a rec::PalProgram, an OsScheduler multiplexes them over the
 * PAL-eligible cores in preemption-timer quanta (legacy work filling
 * every idle cycle), and the completion hook turns each PalCompletion
 * back into the caller's ExecutionReport (both mappings live in
 * backend/nativerun.hh). Afterwards the audit trail -- one TPM_Extend
 * per report digest -- flows through the secure transport session,
 * batched into a single exchange when pipelining is on.
 *
 * With config.workers > 0 the same engine (runBatch + flushAudit) runs
 * once per *shard*: requests partition by affinity onto config.shards
 * independent machines, a work-stealing WorkerPool executes the shard
 * campaigns on real OS threads, and the merge sequencer below
 * (drainSharded) commits reports in submit order, replays transport
 * milestones in shard order, and reconciles the shard clocks onto the
 * front machine's timeline. Nothing a worker thread computes depends on
 * which worker ran it or when, which is the whole determinism argument
 * (DESIGN.md section 10).
 */

#include "sea/service.hh"

#include <algorithm>
#include <cstdio>

#include "backend/nativerun.hh"
#include "backend/registry.hh"
#include "crypto/sha1.hh"
#include "sea/workerpool.hh"

namespace mintcb::sea
{

namespace
{

/** Requests on these backend names run in the service's own scheduler
 *  campaign; every other registered name dispatches to the registry. */
bool
isNativeBackend(const std::string &name)
{
    return name.empty() || name == backend::defaultBackendName;
}

} // namespace

/** One shard of the sharded engine: an independent simulated machine
 *  (seed derived from the front machine's master seed), its secure
 *  executive, and a resumable transport session -- all persistent
 *  across drains so per-shard session resumption keeps paying off. */
struct ExecutionService::Shard
{
    std::uint32_t id;
    std::unique_ptr<machine::Machine> machine;
    rec::SecureExecutive exec;
    tpm::TpmTransportServer server;
    Bytes sessionKey;
    bool sessionLive = false;

    Shard(std::uint32_t id_, const machine::PlatformSpec &spec,
          std::uint64_t master_seed, std::size_t sepcrs)
        : id(id_),
          machine(machine::Machine::forShard(spec, master_seed, id_)),
          exec(*machine, sepcrs), server(machine->tpm())
    {
    }
};

ExecutionService::ExecutionService(machine::Machine &machine,
                                   ServiceConfig config)
    : machine_(machine), config_(config),
      exec_(machine, config.sePcrs), server_(machine.tpm())
{
}

// Out of line so Shard and WorkerPool are complete; members destroy in
// reverse declaration order, so the pool joins its threads before the
// shards they reference go away.
ExecutionService::~ExecutionService() = default;

std::uint32_t
ExecutionService::shardOf(std::uint64_t affinity_key,
                          std::uint32_t shard_count)
{
    if (shard_count == 0)
        return 0;
    return static_cast<std::uint32_t>(affinity_key % shard_count);
}

std::uint64_t
ExecutionService::affinityOf(const PalRequest &request)
{
    if (request.affinity != 0)
        return request.affinity;
    // FNV-1a over the PAL name: same sealed identity -> same shard.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : request.pal.name()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

ExecutionService::PoolStats
ExecutionService::poolStats() const
{
    PoolStats out;
    if (pool_) {
        const WorkerPool::Stats s = pool_->stats();
        out.executed = s.executed;
        out.steals = s.steals;
        out.discarded = s.discarded;
    }
    return out;
}

const backend::BackendRegistry &
ExecutionService::registry() const
{
    return config_.backends != nullptr
               ? *config_.backends
               : backend::BackendRegistry::standard();
}

Status
ExecutionService::admissible(const PalRequest &request) const
{
    return registry().admissible(request);
}

Result<std::uint64_t>
ExecutionService::submit(PalRequest request)
{
    if (request.pal.name().empty())
        return Error(Errc::invalidArgument, "PAL must be named");
    if (request.dataPages == 0)
        return Error(Errc::invalidArgument,
                     "a PAL needs at least one data page");
    if (auto s = admissible(request); !s.ok()) {
        std::lock_guard<std::mutex> lock(queueMutex_);
        ++metrics_.backendRejected;
        return s.error();
    }

    const std::string pal_name = request.pal.name();
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        id = nextId_++;
        queue_.push_back(Pending{std::move(request), id, machine_.now()});
        ++metrics_.submitted;
        metrics_.maxQueueDepth =
            std::max(metrics_.maxQueueDepth, queue_.size());
    }
    // Notify outside the lock: the observer may reenter submit().
    if (observer_)
        observer_->onSubmit(id, pal_name);
    return id;
}

Result<std::vector<ExecutionReport>>
ExecutionService::drain()
{
    std::vector<Pending> batch;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (queue_.empty())
            return std::vector<ExecutionReport>{};
        // Claim the whole batch up front: once the PALs start
        // executing, a late failure (audit flush, scheduler error) must
        // surface as the drain's error without leaving the requests
        // queued -- re-running them would duplicate secureBody side
        // effects and sePCR extends.
        batch = std::move(queue_);
        queue_.clear();
    }
    // The claimed batch is snapshotted and the queue lock released
    // before any callback runs: an observer that submits from its
    // callback lands in the (now empty) queue for the next drain
    // instead of deadlocking on the lock or re-entering this batch.
    ++metrics_.drains;
    if (observer_)
        observer_->onDrainBegin(batch.size());
    if (config_.workers > 0)
        return drainSharded(std::move(batch));
    return drainInline(std::move(batch));
}

Result<ExecutionService::BatchOutcome>
ExecutionService::runBatch(const EngineRefs &refs,
                           const std::vector<Pending> &batch,
                           std::uint32_t shard_id)
{
    BatchOutcome out;
    out.reports.resize(batch.size());

    // Registry-routed requests (sgx, vm-tee, ...) run first, in submit
    // order, on the engine's machine -- the partition depends only on
    // each request's backend name, so the sharded merge stays
    // deterministic. The remaining (native) requests then run as one
    // scheduler campaign.
    std::vector<std::size_t> native;
    native.reserve(batch.size());
    const backend::BackendRegistry &reg = registry();
    // First PAL-eligible core (cores below legacyCpus stay legacy).
    const CpuId backend_cpu =
        config_.legacyCpus < refs.machine.cpuCount()
            ? static_cast<CpuId>(config_.legacyCpus)
            : 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Pending &p = batch[i];
        if (isNativeBackend(p.request.backend)) {
            native.push_back(i);
            continue;
        }
        const backend::Backend *b = reg.find(p.request.backend);
        if (b == nullptr) {
            // submit() validated the name; a vanished backend means
            // the registry was swapped out underneath us.
            return Error(Errc::notFound, "backend '" +
                                             p.request.backend +
                                             "' no longer registered");
        }
        auto routed = b->run(refs.machine, p.request, backend_cpu);
        if (!routed)
            return routed.error();
        ExecutionReport &r = out.reports[i];
        r = routed.take();
        r.requestId = p.id;
        r.submittedAt = p.submittedAt;
        r.queueWait = r.startedAt - r.submittedAt;
        r.shard = shard_id;
        ++out.backendRouted;
    }

    // Per-request state the scheduler hooks fill in, sized once up
    // front so the slots the hooks write through stay put. added[k] is
    // the native index of the k-th program the scheduler accepted
    // (PalCompletion::seq counts accepted programs only).
    std::vector<backend::NativeSlot> slots(native.size());
    std::vector<std::size_t> added(native.size());
    rec::OsScheduler sched(refs.exec, config_.quantum,
                           config_.legacyCpus);
    for (std::size_t n = 0; n < native.size(); ++n) {
        const Pending &p = batch[native[n]];
        slots[n].submittedAt = p.submittedAt;
        auto idx = sched.add(backend::nativeProgram(
            refs.machine, p.request, config_.quantum, slots[n]));
        if (idx) {
            added[*idx] = n;
            continue;
        }
        // A SECB that cannot be placed fails its own request only; the
        // rest of the campaign still runs.
        ExecutionReport &r = out.reports[native[n]];
        r.requestId = p.id;
        r.palName = p.request.pal.name();
        r.backend = backend::defaultBackendName;
        r.status = Status{idx.error()};
        r.submittedAt = p.submittedAt;
        r.shard = shard_id;
    }

    sched.setCompletionHook([&](const rec::PalCompletion &done) {
        const std::size_t n = added[done.seq];
        ExecutionReport &r = out.reports[native[n]];
        r = backend::nativeReport(slots[n], done);
        r.requestId = batch[native[n]].id;
        r.shard = shard_id;
    });

    auto stats = sched.runAll();
    if (!stats)
        return stats.error();
    out.preemptions = stats->preemptions;
    out.slaunchRetries = stats->slaunchRetries;
    out.legacyWorkUnits = stats->legacyWorkUnits;
    return out;
}

Result<std::vector<ExecutionReport>>
ExecutionService::drainInline(std::vector<Pending> batch)
{
    const TimePoint drain_start = machine_.now();
    const EngineRefs refs{machine_, exec_, server_, sessionKey_,
                          sessionLive_};

    auto outcome = runBatch(refs, batch, 0);
    if (!outcome)
        return outcome.error();

    for (const ExecutionReport &r : outcome->reports) {
        ++metrics_.completed;
        if (!r.status.ok())
            ++metrics_.failed;
        if (!r.deadlineMet)
            ++metrics_.deadlinesMissed;
        metrics_.queueWait.add(r.queueWait);
        metrics_.turnaround.add(r.total);
        metrics_.compute.add(r.phases.compute);
        metrics_.launches += r.launches;
        metrics_.yields += r.yields;
        if (observer_)
            observer_->onRequestDone(r);
    }
    metrics_.preemptions += outcome->preemptions;
    metrics_.slaunchRetries += outcome->slaunchRetries;
    metrics_.legacyWorkUnits += outcome->legacyWorkUnits;
    metrics_.backendRouted += outcome->backendRouted;

    if (config_.auditTrail) {
        AuditOutcome audit;
        if (auto s = flushAudit(refs, outcome->reports, audit, observer_);
            !s.ok()) {
            return s.error();
        }
        metrics_.auditCommands += audit.commands;
        metrics_.auditExchanges += audit.exchanges;
        metrics_.sessionsAccepted += audit.opened;
        metrics_.sessionsResumed += audit.resumed;
    }

    metrics_.busy += machine_.now() - drain_start;
    if (observer_)
        observer_->onDrainEnd(outcome->reports.size());
    return std::move(outcome->reports);
}

ExecutionService::Shard &
ExecutionService::ensureShard(std::uint32_t shard)
{
    if (shards_.size() <= shard)
        shards_.resize(static_cast<std::size_t>(shard) + 1);
    if (!shards_[shard]) {
        shards_[shard] = std::make_unique<Shard>(
            shard, machine_.spec(), machine_.seed(), config_.sePcrs);
        if (observer_) {
            observer_->onShardCreated(shard, *shards_[shard]->machine,
                                      shards_[shard]->exec);
        }
    }
    return *shards_[shard];
}

Result<std::vector<ExecutionReport>>
ExecutionService::drainSharded(std::vector<Pending> batch)
{
    const TimePoint epoch = machine_.now();
    const std::uint32_t shard_count =
        std::max<std::uint32_t>(1, config_.shards);
    if (!pool_)
        pool_ = std::make_unique<WorkerPool>(config_.workers);

    // Deterministic partition: a request's shard is a function of its
    // affinity key and the shard count only -- never of the worker
    // count or any host-side timing. Submit order is preserved within
    // each shard.
    std::vector<std::vector<Pending>> per_shard(shard_count);
    for (Pending &p : batch) {
        per_shard[shardOf(affinityOf(p.request), shard_count)]
            .push_back(std::move(p));
    }

    /** One shard campaign's scratch state; lives on this stack frame
     *  until pool_->wait() returns, so worker lambdas may hold
     *  references. */
    struct Run
    {
        Shard *shard = nullptr;
        std::vector<Pending> batch;
        Status status = okStatus();
        BatchOutcome out;
        AuditOutcome audit;
        Duration elapsed;
    };
    std::vector<Run> runs;
    runs.reserve(shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
        if (per_shard[s].empty())
            continue;
        Run run;
        run.shard = &ensureShard(s); // observer callback: before fork
        run.batch = std::move(per_shard[s]);
        runs.push_back(std::move(run));
    }

    for (Run &run : runs) {
        pool_->submit(
            [this, &run, epoch] {
                Shard &shard = *run.shard;
                if (observer_)
                    observer_->onShardBegin(shard.id, run.batch.size());
                // Reconcile the shard onto the service timeline: every
                // campaign in this drain starts at the same epoch.
                shard.machine->alignTo(epoch);
                const EngineRefs refs{*shard.machine, shard.exec,
                                      shard.server, shard.sessionKey,
                                      shard.sessionLive};
                auto outcome = runBatch(refs, run.batch, shard.id);
                if (!outcome) {
                    run.status = outcome.error();
                } else {
                    run.out = outcome.take();
                    if (config_.auditTrail) {
                        run.status = flushAudit(refs, run.out.reports,
                                                run.audit, nullptr);
                    }
                }
                run.elapsed = shard.machine->now() - epoch;
                if (observer_) {
                    observer_->onShardEnd(shard.id,
                                          run.out.reports.size());
                }
            },
            run.shard->id % pool_->workers());
    }
    pool_->wait();

    // ---- merge sequencer: single-threaded and deterministic ----
    for (const Run &run : runs) {
        if (!run.status.ok())
            return run.status.error();
    }

    std::vector<ExecutionReport> reports;
    for (Run &run : runs) {
        for (ExecutionReport &r : run.out.reports)
            reports.push_back(std::move(r));
    }
    // Stable submit-order commit (requestIds are unique and issued in
    // submission order).
    std::sort(reports.begin(), reports.end(),
              [](const ExecutionReport &a, const ExecutionReport &b) {
                  return a.requestId < b.requestId;
              });

    for (const ExecutionReport &r : reports) {
        ++metrics_.completed;
        if (!r.status.ok())
            ++metrics_.failed;
        if (!r.deadlineMet)
            ++metrics_.deadlinesMissed;
        metrics_.queueWait.add(r.queueWait);
        metrics_.turnaround.add(r.total);
        metrics_.compute.add(r.phases.compute);
        metrics_.launches += r.launches;
        metrics_.yields += r.yields;
        if (observer_)
            observer_->onRequestDone(r);
    }

    Duration max_elapsed;
    for (const Run &run : runs) {
        metrics_.preemptions += run.out.preemptions;
        metrics_.slaunchRetries += run.out.slaunchRetries;
        metrics_.legacyWorkUnits += run.out.legacyWorkUnits;
        metrics_.backendRouted += run.out.backendRouted;
        metrics_.auditCommands += run.audit.commands;
        metrics_.auditExchanges += run.audit.exchanges;
        metrics_.sessionsAccepted += run.audit.opened;
        metrics_.sessionsResumed += run.audit.resumed;
        ++metrics_.shardDrains;
        if (observer_) {
            // Transport milestones were recorded on the worker thread;
            // replay them here in deterministic shard order.
            for (const Milestone &m : run.audit.milestones) {
                switch (m.kind) {
                  case Milestone::Kind::sessionOpened:
                    observer_->onSessionOpened();
                    break;
                  case Milestone::Kind::sessionResumed:
                    observer_->onSessionResumed(m.value);
                    break;
                  case Milestone::Kind::auditExchange:
                    observer_->onAuditExchange(
                        static_cast<std::size_t>(m.value));
                    break;
                }
            }
            observer_->onShardCommit(run.shard->id,
                                     run.out.reports.size(), epoch,
                                     epoch + run.elapsed);
        }
        max_elapsed = std::max(max_elapsed, run.elapsed);
    }

    // The campaign's simulated cost is the slowest shard -- the shards
    // ran in parallel in virtual time too. Charge it to the service
    // CPU so the front machine's clock reflects the drain.
    machine_.cpu(config_.serviceCpu).advance(max_elapsed);
    metrics_.busy += max_elapsed;
    metrics_.steals = pool_->stats().steals;
    if (observer_)
        observer_->onDrainEnd(reports.size());
    return reports;
}

Result<ExecutionReport>
ExecutionService::runOne(PalRequest request)
{
    if (queueDepth() != 0)
        return Error(Errc::failedPrecondition,
                     "runOne requires an otherwise-empty queue");
    if (auto id = submit(std::move(request)); !id)
        return id.error();
    auto reports = drain();
    if (!reports)
        return reports.error();
    return std::move(reports->front());
}

Result<tpm::TransportClient>
ExecutionService::attachSession(const EngineRefs &refs, AuditOutcome &out,
                                ServiceObserver *live)
{
    // The session key must not be computable by the on-path bus
    // adversary, so it comes from the machine's seeded RNG (still
    // byte-identical across same-seed runs), never from a public label.
    if (refs.sessionKey.empty())
        refs.sessionKey = refs.machine.rng().bytes(32);
    refs.machine.tpmAs(config_.serviceCpu); // TPM work charges our CPU
    if (refs.sessionLive && config_.reuseTransportSession) {
        // Resuming still crosses the LPC bus once; only the RSA decrypt
        // is saved.
        refs.machine.cpu(config_.serviceCpu).advance(busExchangeCost);
        auto epoch = refs.server.acceptResumed(refs.sessionKey);
        if (!epoch)
            return epoch.error();
        ++out.resumed;
        out.milestones.push_back(
            {Milestone::Kind::sessionResumed, *epoch});
        if (live)
            live->onSessionResumed(*epoch);
        return tpm::TransportClient::resume(refs.sessionKey, *epoch);
    }
    auto opened = tpm::TransportClient::openWithKey(
        refs.machine.tpm().srkPublic(), refs.machine.rng(),
        refs.sessionKey);
    if (!opened)
        return opened.error();
    refs.machine.cpu(config_.serviceCpu).advance(busExchangeCost);
    if (auto s = refs.server.accept(opened->envelope); !s.ok())
        return s.error();
    refs.sessionLive = true;
    ++out.opened;
    out.milestones.push_back({Milestone::Kind::sessionOpened, 0});
    if (live)
        live->onSessionOpened();
    return std::move(opened->client);
}

Status
ExecutionService::flushAudit(const EngineRefs &refs,
                             const std::vector<ExecutionReport> &reports,
                             AuditOutcome &out, ServiceObserver *live)
{
    if (reports.empty())
        return okStatus();
    std::vector<tpm::TransportCommand> commands;
    commands.reserve(reports.size());
    for (const ExecutionReport &r : reports) {
        tpm::TransportCommand c;
        c.op = tpm::TransportOp::pcrExtend;
        c.pcr = config_.auditPcr;
        c.payload = crypto::Sha1::digestBytes(r.encode());
        commands.push_back(std::move(c));
    }

    auto client = attachSession(refs, out, live);
    if (!client)
        return client.error();

    refs.machine.tpmAs(config_.serviceCpu);
    if (config_.pipelineTpm) {
        // One wrapped exchange carries the whole drain cycle's extends.
        refs.machine.cpu(config_.serviceCpu).advance(busExchangeCost);
        auto response = refs.server.execute(client->wrapBatch(commands));
        if (!response)
            return response.error();
        auto replies = client->unwrapBatchResponse(*response);
        if (!replies)
            return replies.error();
        for (const tpm::TransportReply &reply : *replies) {
            if (!reply.ok())
                return Error(reply.status, "audit extend rejected");
        }
        ++out.exchanges;
        out.commands += commands.size();
        out.milestones.push_back(
            {Milestone::Kind::auditExchange, commands.size()});
        if (live)
            live->onAuditExchange(commands.size());
    } else {
        for (const tpm::TransportCommand &c : commands) {
            refs.machine.cpu(config_.serviceCpu).advance(busExchangeCost);
            auto response = refs.server.execute(
                client->wrapCommand(c.op, c.pcr, c.payload));
            if (!response)
                return response.error();
            if (auto payload = client->unwrapResponse(*response);
                !payload) {
                return payload.error();
            }
            ++out.exchanges;
            ++out.commands;
            out.milestones.push_back(
                {Milestone::Kind::auditExchange, 1});
            if (live)
                live->onAuditExchange(1);
        }
    }
    return okStatus();
}

std::string
ServiceMetrics::str() const
{
    char line[160];
    std::string out;
    std::snprintf(line, sizeof line,
                  "requests: %llu submitted, %llu completed "
                  "(%llu failed, %llu missed deadlines)\n",
                  static_cast<unsigned long long>(submitted),
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(deadlinesMissed));
    out += line;
    std::snprintf(line, sizeof line,
                  "scheduling: %llu launches, %llu yields "
                  "(%llu timer preemptions), %llu SLAUNCH retries, "
                  "max queue depth %llu\n",
                  static_cast<unsigned long long>(launches),
                  static_cast<unsigned long long>(yields),
                  static_cast<unsigned long long>(preemptions),
                  static_cast<unsigned long long>(slaunchRetries),
                  static_cast<unsigned long long>(maxQueueDepth));
    out += line;
    std::snprintf(line, sizeof line,
                  "tpm transport: %llu audit extends in %llu exchanges "
                  "(%.1f per exchange), %llu sessions opened, "
                  "%llu resumed\n",
                  static_cast<unsigned long long>(auditCommands),
                  static_cast<unsigned long long>(auditExchanges),
                  coalescingRatio(),
                  static_cast<unsigned long long>(sessionsAccepted),
                  static_cast<unsigned long long>(sessionsResumed));
    out += line;
    if (backendRouted != 0 || backendRejected != 0) {
        std::snprintf(line, sizeof line,
                      "backends: %llu registry-routed requests, "
                      "%llu submissions rejected at admission\n",
                      static_cast<unsigned long long>(backendRouted),
                      static_cast<unsigned long long>(backendRejected));
        out += line;
    }
    if (shardDrains != 0) {
        std::snprintf(line, sizeof line,
                      "sharding: %llu shard campaigns committed, "
                      "%llu worker-pool steals\n",
                      static_cast<unsigned long long>(shardDrains),
                      static_cast<unsigned long long>(steals));
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "throughput: %.1f PALs/simulated-second over %s busy "
                  "(%llu legacy work units alongside)\n",
                  palsPerSimSecond(), busy.str().c_str(),
                  static_cast<unsigned long long>(legacyWorkUnits));
    out += line;
    out += "queue wait:\n" + queueWait.str() + "\n";
    out += "turnaround:\n" + turnaround.str() + "\n";
    return out;
}

} // namespace mintcb::sea
