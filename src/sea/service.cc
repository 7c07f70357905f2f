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
 * Every drain is a list of runs, each one campaign (runBatch +
 * flushAudit) on one Engine. With config.workers == 0 the whole batch
 * is one run on the front engine, executed on the calling thread. With
 * config.workers > 0 requests partition by affinity onto config.shards
 * independent machines and a work-stealing WorkerPool executes the
 * shard runs on real OS threads. Either way the merge sequencer below
 * (commit) folds reports in submit order, replays transport milestones
 * in run order, and reconciles the run clocks onto the front machine's
 * timeline. Nothing a worker thread computes depends on which worker
 * ran it or when, which is the whole determinism argument (DESIGN.md
 * section 10).
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

/** One shard: an independent simulated machine (seed derived from the
 *  front machine's master seed) and the engine that runs on it. */
struct ExecutionService::Shard
{
    std::unique_ptr<machine::Machine> machine;
    Engine engine;

    Shard(std::uint32_t id, const machine::PlatformSpec &spec,
          std::uint64_t master_seed, std::size_t sepcrs)
        : machine(machine::Machine::forShard(spec, master_seed, id)),
          engine(*machine, sepcrs)
    {
    }
};

ExecutionService::ExecutionService(machine::Machine &machine,
                                   ServiceConfig config)
    : config_(config), front_(machine, config.sePcrs)
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
        queue_.push_back(
            Pending{std::move(request), id, front_.machine.now()});
        ++metrics_.submitted;
        metrics_.maxQueueDepth =
            std::max(metrics_.maxQueueDepth, queue_.size());
    }
    // Notify outside the lock: an observer may reenter submit().
    for (ServiceObserver *o : observers_)
        o->onSubmit(id, pal_name);
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
    for (ServiceObserver *o : observers_)
        o->onDrainBegin(batch.size());

    const TimePoint epoch = front_.machine.now();
    std::vector<Run> runs;
    if (config_.workers == 0) {
        runs.emplace_back(front_, 0, std::move(batch));
        // The front clock moves as the run executes: no alignment
        // before it and no service-CPU charge after it.
        execute(runs.front(), epoch);
        return commit(runs, epoch);
    }

    // Deterministic partition: a request's shard is a function of its
    // affinity key and the shard count only -- never of the worker
    // count or any host-side timing. Submit order is preserved within
    // each shard.
    const std::uint32_t shard_count =
        std::max<std::uint32_t>(1, config_.shards);
    std::vector<std::vector<Pending>> per_shard(shard_count);
    for (Pending &p : batch) {
        per_shard[shardOf(affinityOf(p.request), shard_count)]
            .push_back(std::move(p));
    }
    for (std::uint32_t s = 0; s < shard_count; ++s) {
        if (per_shard[s].empty())
            continue;
        // ensureShard's observer callback runs here, before the fork.
        runs.emplace_back(ensureShard(s).engine, s,
                          std::move(per_shard[s]));
    }

    if (!pool_)
        pool_ = std::make_unique<WorkerPool>(config_.workers);
    // runs lives on this stack frame until pool_->wait() returns, so
    // the worker lambdas may hold references into it.
    for (Run &run : runs) {
        pool_->submit(
            [this, &run, epoch] {
                for (ServiceObserver *o : observers_)
                    o->onShardBegin(run.shard, run.batch.size());
                // Reconcile the shard onto the service timeline: every
                // campaign in this drain starts at the same epoch.
                run.engine->machine.alignTo(epoch);
                execute(run, epoch);
                for (ServiceObserver *o : observers_)
                    o->onShardEnd(run.shard, run.out.reports.size());
            },
            run.shard % pool_->workers());
    }
    pool_->wait();
    return commit(runs, epoch);
}

Result<ExecutionService::BatchOutcome>
ExecutionService::runBatch(Engine &engine,
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
        config_.legacyCpus < engine.machine.cpuCount()
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
        auto routed = b->run(engine.machine, p.request, backend_cpu);
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
    rec::OsScheduler sched(engine.exec, config_.quantum,
                           config_.legacyCpus);
    for (std::size_t n = 0; n < native.size(); ++n) {
        const Pending &p = batch[native[n]];
        slots[n].submittedAt = p.submittedAt;
        rec::PalProgram prog = backend::nativeProgram(
            engine.machine, p.request, config_.quantum, slots[n]);
        prog.requestId = p.id;
        auto idx = sched.add(prog);
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

void
ExecutionService::execute(Run &run, TimePoint epoch)
{
    auto outcome = runBatch(*run.engine, run.batch, run.shard);
    if (!outcome) {
        run.status = outcome.error();
    } else {
        run.out = outcome.take();
        if (config_.auditTrail)
            run.status =
                flushAudit(*run.engine, run.out.reports, run.milestones);
    }
    run.elapsed = run.engine->machine.now() - epoch;
}

ExecutionService::Shard &
ExecutionService::ensureShard(std::uint32_t shard)
{
    if (shards_.size() <= shard)
        shards_.resize(static_cast<std::size_t>(shard) + 1);
    if (!shards_[shard]) {
        shards_[shard] = std::make_unique<Shard>(
            shard, front_.machine.spec(), front_.machine.seed(),
            config_.sePcrs);
        for (ServiceObserver *o : observers_) {
            o->onShardCreated(shard, *shards_[shard]->machine,
                              shards_[shard]->engine.exec);
        }
    }
    return *shards_[shard];
}

Result<std::vector<ExecutionReport>>
ExecutionService::commit(std::vector<Run> &runs, TimePoint epoch)
{
    // ---- merge sequencer: single-threaded and deterministic ----
    const bool sharded = config_.workers > 0;
    std::vector<ExecutionReport> reports;
    for (Run &run : runs) {
        reports.insert(reports.end(),
                       std::make_move_iterator(run.out.reports.begin()),
                       std::make_move_iterator(run.out.reports.end()));
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
        for (ServiceObserver *o : observers_)
            o->onRequestDone(r);
    }

    Status first_error = okStatus();
    Duration max_elapsed;
    for (const Run &run : runs) {
        if (first_error.ok())
            first_error = run.status;
        metrics_.preemptions += run.out.preemptions;
        metrics_.slaunchRetries += run.out.slaunchRetries;
        metrics_.legacyWorkUnits += run.out.legacyWorkUnits;
        metrics_.backendRouted += run.out.backendRouted;
        // Transport milestones were recorded while the run executed;
        // count and replay them here in deterministic run order.
        for (const Milestone &m : run.milestones) {
            switch (m.kind) {
              case Milestone::Kind::sessionOpened:
                ++metrics_.sessionsAccepted;
                for (ServiceObserver *o : observers_)
                    o->onSessionOpened();
                break;
              case Milestone::Kind::sessionResumed:
                ++metrics_.sessionsResumed;
                for (ServiceObserver *o : observers_)
                    o->onSessionResumed(m.value);
                break;
              case Milestone::Kind::auditExchange:
                ++metrics_.auditExchanges;
                metrics_.auditCommands += m.value;
                for (ServiceObserver *o : observers_)
                    o->onAuditExchange(static_cast<std::size_t>(m.value));
                break;
            }
        }
        if (sharded) {
            ++metrics_.shardDrains;
            for (ServiceObserver *o : observers_) {
                o->onShardCommit(run.shard, run.out.reports.size(), epoch,
                                 epoch + run.elapsed);
            }
        }
        max_elapsed = std::max(max_elapsed, run.elapsed);
    }

    if (sharded) {
        // The campaign's simulated cost is the slowest shard -- the
        // shards ran in parallel in virtual time too. Charge it to the
        // service CPU so the front machine's clock reflects the drain.
        front_.machine.cpu(serviceCpu).advance(max_elapsed);
        metrics_.steals = pool_->stats().steals;
    }
    metrics_.busy += max_elapsed;
    if (!first_error.ok())
        return first_error.error();
    for (ServiceObserver *o : observers_)
        o->onDrainEnd(reports.size());
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
ExecutionService::attachSession(Engine &engine,
                                std::vector<Milestone> &out)
{
    // The session key must not be computable by the on-path bus
    // adversary, so it comes from the machine's seeded RNG (still
    // byte-identical across same-seed runs), never from a public label.
    if (engine.sessionKey.empty())
        engine.sessionKey = engine.machine.rng().bytes(32);
    engine.machine.tpmAs(serviceCpu); // TPM work charges our CPU
    if (engine.sessionLive && config_.reuseTransportSession) {
        // Resuming still crosses the LPC bus once; only the RSA decrypt
        // is saved.
        engine.machine.cpu(serviceCpu).advance(busExchangeCost);
        auto epoch = engine.server.acceptResumed(engine.sessionKey);
        if (!epoch)
            return epoch.error();
        out.push_back({Milestone::Kind::sessionResumed, *epoch});
        return tpm::TransportClient::resume(engine.sessionKey, *epoch);
    }
    auto opened = tpm::TransportClient::openWithKey(
        engine.machine.tpm().srkPublic(), engine.machine.rng(),
        engine.sessionKey);
    if (!opened)
        return opened.error();
    engine.machine.cpu(serviceCpu).advance(busExchangeCost);
    if (auto s = engine.server.accept(opened->envelope); !s.ok())
        return s.error();
    engine.sessionLive = true;
    out.push_back({Milestone::Kind::sessionOpened, 0});
    return std::move(opened->client);
}

Status
ExecutionService::flushAudit(Engine &engine,
                             const std::vector<ExecutionReport> &reports,
                             std::vector<Milestone> &out)
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

    auto client = attachSession(engine, out);
    if (!client)
        return client.error();

    engine.machine.tpmAs(serviceCpu);
    if (config_.pipelineTpm) {
        // One wrapped exchange carries the whole drain cycle's extends.
        engine.machine.cpu(serviceCpu).advance(busExchangeCost);
        auto response = engine.server.execute(client->wrapBatch(commands));
        if (!response)
            return response.error();
        auto replies = client->unwrapBatchResponse(*response);
        if (!replies)
            return replies.error();
        for (const tpm::TransportReply &reply : *replies) {
            if (!reply.ok())
                return Error(reply.status, "audit extend rejected");
        }
        out.push_back({Milestone::Kind::auditExchange, commands.size()});
    } else {
        for (const tpm::TransportCommand &c : commands) {
            engine.machine.cpu(serviceCpu).advance(busExchangeCost);
            auto response = engine.server.execute(
                client->wrapCommand(c.op, c.pcr, c.payload));
            if (!response)
                return response.error();
            if (auto payload = client->unwrapResponse(*response);
                !payload) {
                return payload.error();
            }
            out.push_back({Milestone::Kind::auditExchange, 1});
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
