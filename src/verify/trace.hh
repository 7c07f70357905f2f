/**
 * @file
 * Recorded execution traces for offline lint checking.
 *
 * A TraceRecorder turns every life-cycle and transport milestone into a
 * TraceEvent and appends it to an ExecutionTrace. The trace serializes
 * to the repo's canonical big-endian encoding, so a run can be recorded
 * once and linted later (tools/mintcb-lint) against the temporal
 * properties in temporal.hh.
 */

#ifndef MINTCB_VERIFY_TRACE_HH
#define MINTCB_VERIFY_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"
#include "common/simtime.hh"
#include "common/types.hh"
#include "rec/instructions.hh"
#include "sea/service.hh"

namespace mintcb::verify
{

/** What happened (wire values are part of the trace format). */
enum class TraceEventKind : std::uint8_t
{
    slaunch = 1,       //!< subject = PAL name, arg = 1 if resume
    syield = 2,        //!< subject = PAL name
    sfree = 3,         //!< subject = PAL name
    skill = 4,         //!< subject = PAL name
    barrier = 5,       //!< scheduler round barrier
    drainBegin = 6,    //!< arg = requests claimed
    drainEnd = 7,      //!< arg = reports returned
    sessionOpen = 8,   //!< transport session key exchange
    sessionResume = 9, //!< arg = rekey epoch
    sessionClose = 10, //!< harness-noted session teardown
    transportExchange = 11, //!< arg = commands in the exchange
};

const char *traceEventKindName(TraceEventKind k);

/** One recorded milestone. */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::barrier;
    std::uint64_t seq = 0;   //!< position in the trace (0-based)
    CpuId cpu = 0;           //!< reporting CPU (0 for service events)
    std::string subject;     //!< PAL name; empty for platform events
    std::uint64_t arg = 0;   //!< kind-specific payload
    /** Simulated time on the reporting clock. */
    TimePoint at;
    /** The request whose SECB raised a PAL event (rec::Secb::requestId);
     *  0 for platform events and for PALs run outside the service. */
    std::uint64_t requestId = 0;

    std::string str() const;
};

/** An append-only sequence of TraceEvents with a canonical encoding
 *  ("MTL3": per-event sim-time and request id); decode() refuses any
 *  other magic. */
class ExecutionTrace
{
  public:
    /** Append @p e as the next event (its seq is overwritten). */
    void append(TraceEvent e);
    void append(TraceEventKind kind, CpuId cpu, std::string subject,
                std::uint64_t arg = 0, TimePoint at = {});

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /** Canonical big-endian serialization (versioned). */
    Bytes encode() const;
    /** Inverse of encode(); rejects truncated or trailing bytes. */
    static Result<ExecutionTrace> decode(const Bytes &blob);

    std::string str() const;

  private:
    std::vector<TraceEvent> events_;
};

/**
 * The one translation from the sync and service hooks to TraceEvents,
 * shared by TraceRecorder and obs::TelemetrySession. PAL events carry
 * their SECB's request id and the reporting CPU's time; platform events
 * are stamped at Machine::now().
 */
class TraceEventSource : public rec::ExecSyncObserver,
                         public sea::ServiceObserver
{
  public:
    void onPalEvent(rec::ExecEvent event, CpuId cpu,
                    const rec::Secb &secb) override;
    void onBarrier() override { platformEvent(TraceEventKind::barrier); }
    void onDrainBegin(std::size_t queued) override
    {
        platformEvent(TraceEventKind::drainBegin, queued);
    }
    void onDrainEnd(std::size_t completed) override
    {
        platformEvent(TraceEventKind::drainEnd, completed);
    }
    void onSessionOpened() override
    {
        platformEvent(TraceEventKind::sessionOpen);
    }
    void onSessionResumed(std::uint64_t epoch) override
    {
        platformEvent(TraceEventKind::sessionResume, epoch);
    }
    void onAuditExchange(std::size_t commands) override
    {
        platformEvent(TraceEventKind::transportExchange, commands);
    }

  protected:
    /** Every hook arrives here as one event (seq left 0). */
    virtual void onTraceEvent(TraceEvent e) = 0;
    void platformEvent(TraceEventKind kind, std::uint64_t arg = 0);

    const machine::Machine *clock_ = nullptr; //!< nullptr: the epoch
};

/**
 * Records a live run into an ExecutionTrace. Attach to a
 * SecureExecutive, an ExecutionService, or both; the recorder detaches
 * itself on destruction.
 */
class TraceRecorder : public TraceEventSource
{
  public:
    explicit TraceRecorder(ExecutionTrace &trace) : trace_(trace) {}
    ~TraceRecorder() override;

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    void attach(rec::SecureExecutive &exec);
    void attach(sea::ExecutionService &service);

    /** The service model never tears sessions down; a harness that does
     *  (or a synthetic trace) marks the closure explicitly so the
     *  no-use-after-close property has teeth. */
    void noteSessionClose();

  protected:
    void onTraceEvent(TraceEvent e) override;

  private:
    ExecutionTrace &trace_;
    rec::SecureExecutive *exec_ = nullptr;
    sea::ExecutionService *service_ = nullptr;
};

} // namespace mintcb::verify

#endif // MINTCB_VERIFY_TRACE_HH
