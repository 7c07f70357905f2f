/**
 * @file
 * The multi-PAL execution service (tentpole of the recommended-hardware
 * story).
 *
 * Section 5's claim is that SLAUNCH-class hardware turns secure
 * execution from a whole-machine stall (Section 4.2) into an ordinary
 * OS-schedulable workload. ExecutionService is that OS component: the
 * untrusted world submits PalRequests into a work queue; drain() runs
 * every queued PAL concurrently across the machine's cores under the
 * preemption timer, keeps legacy work flowing on the reserved cores, and
 * answers each request with an ExecutionReport.
 *
 * Two TPM-traffic optimizations ride on the transport layer:
 *
 *  - **Command pipelining** (config.pipelineTpm): the audit-trail
 *    TPM_Extends for a drain cycle are coalesced into one batched
 *    transport exchange instead of paying the wrap/MAC and LPC bus
 *    round-trip per command.
 *  - **Session reuse** (config.reuseTransportSession): the transport
 *    session key is drawn once from the machine's seeded RNG and the
 *    session *resumed* on later drains (rekeyed per resumption epoch),
 *    skipping the in-TPM RSA decrypt (hundreds of milliseconds, Section
 *    4.3.3) that a fresh key exchange costs. Model limitation: the key
 *    lives in service memory; the paper's design would keep it inside
 *    the PAL's sealed state (Section 3.3).
 *
 * Everything runs in virtual time: the same seed and submission sequence
 * produce byte-identical ExecutionReports (see ExecutionReport::encode).
 *
 * **Host parallelism** (config.workers > 0): drain() partitions the
 * batch by PAL affinity into config.shards fixed virtual shards, each
 * owning an independent simulated machine + TPM + resumable transport
 * session, and runs the shard campaigns on a work-stealing pool of OS
 * threads. With workers == 0 the whole batch is one run on the caller's
 * machine, executed on the calling thread. Either way one deterministic
 * merge sequencer commits reports in stable submit order and reconciles
 * the runs' sim-clocks onto the service timeline, so the
 * byte-identical-report guarantee holds for *any* worker count
 * (DESIGN.md section 10).
 */

#ifndef MINTCB_SEA_SERVICE_HH
#define MINTCB_SEA_SERVICE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/observers.hh"
#include "common/result.hh"
#include "common/stats.hh"
#include "rec/scheduler.hh"
#include "sea/request.hh"
#include "tpm/transport.hh"

namespace mintcb::backend
{
class BackendRegistry;
}

namespace mintcb::sea
{
class WorkerPool;
}

namespace mintcb::sea
{

/** Tuning knobs for the execution service. */
struct ServiceConfig
{
    /** Preemption-timer budget granted per scheduling slice. */
    Duration quantum = Duration::millis(1);

    /** CPUs (from CPU 0 up) reserved for pure legacy work; the rest run
     *  PAL slices with legacy filler between them. */
    std::uint32_t legacyCpus = 1;

    /** sePCR bank size = concurrent-PAL limit (Section 5.4). */
    std::size_t sePcrs = 8;

    /** Coalesce a drain cycle's audit TPM_Extends into one batched
     *  transport exchange (vs one exchange per command). */
    bool pipelineTpm = true;

    /** Resume the TPM transport session across drains instead of
     *  re-running the RSA key exchange each time. */
    bool reuseTransportSession = true;

    /** Extend a digest of every ExecutionReport into auditPcr through a
     *  secure transport session (the service's tamper-evident log). */
    bool auditTrail = true;
    std::uint32_t auditPcr = 15;

    /** @name Host parallelism (sharded drains; DESIGN.md section 10).
     * workers > 0 switches drain() to the sharded engine: requests are
     * partitioned by affinity into `shards` fixed virtual shards, each
     * owning an independent simulated machine + TPM + transport
     * session, and a work-stealing pool of `workers` OS threads runs
     * the shard campaigns concurrently. The partition depends only on
     * `shards` (never on `workers`), so reports are byte-identical for
     * any worker count. workers == 0 (default) runs the whole batch as
     * one run on the caller's machine, on the draining thread.
     * @{ */
    std::uint32_t workers = 0;
    std::uint32_t shards = 8;
    /** @} */

    /** Backend registry PalRequest::backend names resolve against.
     *  nullptr (default) uses backend::BackendRegistry::standard() --
     *  the five-member zoo. The registry must outlive the service. */
    const backend::BackendRegistry *backends = nullptr;
};

/** Aggregate service observability (all counters cumulative). */
struct ServiceMetrics
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;       //!< reports returned
    std::uint64_t failed = 0;          //!< reports with !status.ok()
    std::uint64_t deadlinesMissed = 0;
    std::size_t maxQueueDepth = 0;
    std::uint64_t drains = 0;

    /** @name Scheduler-side totals. @{ */
    std::uint64_t launches = 0;
    std::uint64_t yields = 0;
    std::uint64_t preemptions = 0;     //!< timer-forced suspends
    std::uint64_t slaunchRetries = 0;
    std::uint64_t legacyWorkUnits = 0; //!< retired during drains
    /** @} */

    /** @name TPM transport traffic. @{ */
    std::uint64_t auditCommands = 0;
    std::uint64_t auditExchanges = 0;
    std::uint64_t sessionsAccepted = 0; //!< full RSA key exchanges
    std::uint64_t sessionsResumed = 0;  //!< cheap ticket resumptions
    /** @} */

    /** Requests executed by a registry backend (sgx, vm-tee, ...)
     *  instead of the native scheduler campaign. */
    std::uint64_t backendRouted = 0;
    /** Submissions refused by the backend admission check (unknown
     *  name or capability mismatch). */
    std::uint64_t backendRejected = 0;

    /** @name Sharded-drain totals (zero for inline drains). @{ */
    std::uint64_t shardDrains = 0; //!< shard campaigns committed
    std::uint64_t steals = 0;      //!< worker-pool task steals
                                   //!< (host-timing dependent; never
                                   //!< part of deterministic output)
    /** @} */

    /** Simulated time spent inside drain() calls. */
    Duration busy;

    /** @name Per-request latency distributions. @{ */
    LatencyHistogram queueWait;  //!< submit -> first SLAUNCH
    LatencyHistogram turnaround; //!< first SLAUNCH -> SFREE
    LatencyHistogram compute;    //!< retired PAL compute per request
    /** @} */

    /** Audit commands per transport exchange (1.0 = no coalescing). */
    double coalescingRatio() const
    {
        return auditExchanges != 0
                   ? static_cast<double>(auditCommands) /
                         static_cast<double>(auditExchanges)
                   : 0.0;
    }

    /** Completed PALs per simulated second of drain time. */
    double palsPerSimSecond() const
    {
        return busy > Duration::zero()
                   ? static_cast<double>(completed) / busy.toSeconds()
                   : 0.0;
    }

    /** Multi-line human-readable rendering. */
    std::string str() const;
};

/**
 * Observer of the service's scheduling and transport milestones. The
 * trace recorder, telemetry and test probes implement this, any number
 * at once (ExecutionService::observers()); the service never behaves
 * differently with observers attached.
 */
class ServiceObserver
{
  public:
    virtual ~ServiceObserver() = default;
    /** drain() starts with @p queued requests claimed. */
    virtual void onDrainBegin(std::size_t queued) = 0;
    /** drain() returns @p completed reports. */
    virtual void onDrainEnd(std::size_t completed) = 0;
    /** Full RSA key exchange established a transport session. */
    virtual void onSessionOpened() = 0;
    /** Existing session resumed at rekey @p epoch. */
    virtual void onSessionResumed(std::uint64_t epoch) = 0;
    /** One transport exchange carried @p commands audit commands. */
    virtual void onAuditExchange(std::size_t commands) = 0;
    /** Request @p id for PAL @p pal entered the queue. Default-empty so
     *  existing observers need not care. */
    virtual void onSubmit(std::uint64_t id, const std::string &pal)
    {
        (void)id;
        (void)pal;
    }
    /** Request finished: its report (timestamps included) is final. */
    virtual void onRequestDone(const ExecutionReport &report)
    {
        (void)report;
    }

    /** @name Sharded-drain milestones.
     * onShardCreated and onShardCommit run on the draining thread (in
     * deterministic shard order); onShardBegin/onShardEnd run on the
     * executing *worker thread* -- the host-level fork and join of the
     * shard campaign -- so overrides must be thread-safe (the defaults
     * are no-ops, so existing observers are unaffected).
     * @{ */
    /** Shard @p shard's private machine + executive exist (lazily, on
     *  the first sharded drain that routes work to it); attach
     *  per-shard instrumentation here. */
    virtual void onShardCreated(std::uint32_t shard,
                                machine::Machine &machine,
                                rec::SecureExecutive &exec)
    {
        (void)shard;
        (void)machine;
        (void)exec;
    }
    /** Worker thread picked up shard @p shard's campaign of
     *  @p requests requests (fork edge). */
    virtual void onShardBegin(std::uint32_t shard, std::size_t requests)
    {
        (void)shard;
        (void)requests;
    }
    /** Worker thread finished shard @p shard (join edge); its reports
     *  now await the merge sequencer. */
    virtual void onShardEnd(std::uint32_t shard, std::size_t completed)
    {
        (void)shard;
        (void)completed;
    }
    /** Merge sequencer committed shard @p shard's campaign, spanning
     *  [@p begin, @p end) of reconciled platform time. */
    virtual void onShardCommit(std::uint32_t shard, std::size_t completed,
                               TimePoint begin, TimePoint end)
    {
        (void)shard;
        (void)completed;
        (void)begin;
        (void)end;
    }
    /** @} */
};

/**
 * The work-queue engine. Typical use:
 *
 *     ExecutionService svc(machine);
 *     PalRequest req(pal, input);
 *     req.slicedCompute = Duration::millis(5);
 *     req.secureBody = ...;
 *     auto id = svc.submit(std::move(req));
 *     auto reports = svc.drain();
 */
class ExecutionService
{
  public:
    explicit ExecutionService(machine::Machine &machine,
                              ServiceConfig config = {});
    ~ExecutionService();

    ExecutionService(const ExecutionService &) = delete;
    ExecutionService &operator=(const ExecutionService &) = delete;

    /** Enqueue @p request; returns its requestId. The request is not
     *  executed until the next drain(). Thread-safe (any thread may
     *  submit; drain() itself must stay on one thread at a time).
     *  Fails closed on backend problems: an unknown backend name or a
     *  capability the named backend lacks (see admissible()) is
     *  rejected here, before the request can enter a drain. */
    Result<std::uint64_t> submit(PalRequest request);

    /** The backend admission check submit() applies (exposed so the
     *  gateway can refuse a doomed wire request without consuming a
     *  requestId): the named backend must be registered and able to
     *  honor every capability the request demands. */
    Status admissible(const PalRequest &request) const;

    /** The registry this service resolves backend names against. */
    const backend::BackendRegistry &registry() const;

    std::size_t queueDepth() const
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        return queue_.size();
    }

    /**
     * Run every queued request to completion across the machine's
     * cores and return their reports in requestId order. Infrastructure
     * failures surface as the Result error, returned only after every
     * PAL that ran is counted in metrics() and passed to
     * onRequestDone; per-PAL application failures live in each
     * report's status.
     */
    Result<std::vector<ExecutionReport>> drain();

    /** Convenience: submit one request and drain immediately. */
    Result<ExecutionReport> runOne(PalRequest request);

    const ServiceMetrics &metrics() const { return metrics_; }
    rec::SecureExecutive &executive() { return front_.exec; }

    /** The milestone observers, notified in attach order. Pool
     *  workers read the list (onShardBegin/onShardEnd), so attach and
     *  detach only between drains. */
    ObserverList<ServiceObserver> &observers() { return observers_; }
    /** observers().add(obs); the request-path benchmark (perfbench/)
     *  still calls it. */
    void setObserver(ServiceObserver *obs) { observers_.add(obs); }

    /** Modeled client-side cost per transport exchange (wrap + MAC +
     *  LPC bus round trip) -- what pipelining amortizes. */
    static constexpr Duration busExchangeCost = Duration::micros(50);

    /** CPU charged for service-side work (wrapping, bus traffic). */
    static constexpr CpuId serviceCpu = 0;

    /** The shard a request with @p affinity_key routes to under
     *  @p shard_count shards (exposed so tests and clients can predict
     *  placement). */
    static std::uint32_t shardOf(std::uint64_t affinity_key,
                                 std::uint32_t shard_count);
    /** The affinity key drain() uses for @p request (explicit key, or
     *  an FNV-1a hash of the PAL name). */
    static std::uint64_t affinityOf(const PalRequest &request);

    /** Host-level pool behavior of the last/current sharded drains
     *  (executed/steals/discarded); zeros before the first one. */
    struct PoolStats
    {
        std::uint64_t executed = 0;
        std::uint64_t steals = 0;
        std::uint64_t discarded = 0;
    };
    PoolStats poolStats() const;

  private:
    struct Pending
    {
        PalRequest request;
        std::uint64_t id = 0;
        TimePoint submittedAt;
    };

    /** One recorded transport milestone. The merge sequencer folds
     *  them into the transport counters and replays them to the
     *  observer in deterministic run order. */
    struct Milestone
    {
        enum class Kind
        {
            sessionOpened,
            sessionResumed,
            auditExchange,
        };
        Kind kind;
        std::uint64_t value = 0; //!< epoch / command count
    };

    /** Scheduling-side outcome of one engine run. */
    struct BatchOutcome
    {
        std::vector<ExecutionReport> reports; //!< in batch order
        std::uint64_t preemptions = 0;
        std::uint64_t slaunchRetries = 0;
        std::uint64_t legacyWorkUnits = 0;
        std::uint64_t backendRouted = 0; //!< ran on a registry backend
    };

    /** The machine-facing state runs execute against: the service's
     *  front engine over the caller's machine, or a shard's. Persistent
     *  across drains so session resumption keeps paying off. */
    struct Engine
    {
        machine::Machine &machine;
        rec::SecureExecutive exec;
        tpm::TpmTransportServer server;
        Bytes sessionKey; //!< drawn from the machine RNG on first attach
        bool sessionLive = false;

        Engine(machine::Machine &m, std::size_t sepcrs)
            : machine(m), exec(m, sepcrs), server(m.tpm())
        {
        }
    };

    /** One campaign of a drain: a batch, the engine it runs on, and
     *  everything the merge sequencer commits afterwards. */
    struct Run
    {
        Run(Engine &e, std::uint32_t s, std::vector<Pending> b)
            : engine(&e), shard(s), batch(std::move(b))
        {
        }

        Engine *engine;
        std::uint32_t shard; //!< stamped into every report
        std::vector<Pending> batch;
        Status status = okStatus();
        BatchOutcome out;
        std::vector<Milestone> milestones; //!< transport, in order
        Duration elapsed; //!< engine time since the drain's epoch
    };

    struct Shard; //!< owns one shard's machine and engine (.cc)

    /** Schedule and run @p batch on @p engine; pure function of the
     *  engine state (safe to run concurrently for distinct shards). */
    Result<BatchOutcome> runBatch(Engine &engine,
                                  const std::vector<Pending> &batch,
                                  std::uint32_t shard_id);
    /** Open or resume @p engine's transport session, recording the
     *  milestone in @p out. */
    Result<tpm::TransportClient> attachSession(Engine &engine,
                                               std::vector<Milestone> &out);
    /** Extend a digest of every report into the audit PCR, batched or
     *  one-by-one. */
    Status flushAudit(Engine &engine,
                      const std::vector<ExecutionReport> &reports,
                      std::vector<Milestone> &out);

    /** Run @p run's campaign and audit flush on its engine. */
    void execute(Run &run, TimePoint epoch);
    /** The merge sequencer: commit every run's reports, counters and
     *  milestones, then return the reports or the first run error. */
    Result<std::vector<ExecutionReport>> commit(std::vector<Run> &runs,
                                                TimePoint epoch);
    Shard &ensureShard(std::uint32_t shard);

    ServiceConfig config_;
    Engine front_;
    mutable std::mutex queueMutex_; //!< guards queue_, nextId_, and the
                                    //!< submit-side metrics fields
    std::vector<Pending> queue_;
    std::uint64_t nextId_ = 1;
    std::vector<std::unique_ptr<Shard>> shards_; //!< lazily built
    std::unique_ptr<WorkerPool> pool_;           //!< lazily started
    ServiceMetrics metrics_;
    ObserverList<ServiceObserver> observers_;
};

} // namespace mintcb::sea

#endif // MINTCB_SEA_SERVICE_HH
