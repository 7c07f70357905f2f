/**
 * @file
 * Execution-trace recording and serialization.
 */

#include "verify/trace.hh"

#include "common/bytebuf.hh"

namespace mintcb::verify
{

namespace
{

constexpr std::uint32_t traceMagic = 0x4d544c33; // "MTL3"
constexpr std::uint8_t kindMin = 1;
constexpr std::uint8_t kindMax =
    static_cast<std::uint8_t>(TraceEventKind::transportExchange);

} // namespace

const char *
traceEventKindName(TraceEventKind k)
{
    switch (k) {
      case TraceEventKind::slaunch: return "slaunch";
      case TraceEventKind::syield: return "syield";
      case TraceEventKind::sfree: return "sfree";
      case TraceEventKind::skill: return "skill";
      case TraceEventKind::barrier: return "barrier";
      case TraceEventKind::drainBegin: return "drain-begin";
      case TraceEventKind::drainEnd: return "drain-end";
      case TraceEventKind::sessionOpen: return "session-open";
      case TraceEventKind::sessionResume: return "session-resume";
      case TraceEventKind::sessionClose: return "session-close";
      case TraceEventKind::transportExchange: return "transport-exchange";
    }
    return "?";
}

std::string
TraceEvent::str() const
{
    std::string out = std::to_string(seq) + ": " +
                      traceEventKindName(kind);
    if (!subject.empty())
        out += " " + subject;
    out += " cpu=" + std::to_string(cpu);
    if (arg != 0)
        out += " arg=" + std::to_string(arg);
    if (requestId != 0)
        out += " req=" + std::to_string(requestId);
    if (at != TimePoint())
        out += " t=" + at.sinceEpoch().str();
    return out;
}

void
ExecutionTrace::append(TraceEvent e)
{
    e.seq = events_.size();
    events_.push_back(std::move(e));
}

void
ExecutionTrace::append(TraceEventKind kind, CpuId cpu, std::string subject,
                       std::uint64_t arg, TimePoint at)
{
    append(TraceEvent{kind, 0, cpu, std::move(subject), arg, at, 0});
}

Bytes
ExecutionTrace::encode() const
{
    ByteWriter w;
    w.u32(traceMagic);
    w.u32(static_cast<std::uint32_t>(events_.size()));
    for (const TraceEvent &e : events_) {
        w.u8(static_cast<std::uint8_t>(e.kind));
        w.u32(e.cpu);
        w.str(e.subject);
        w.u64(e.arg);
        w.u64(static_cast<std::uint64_t>(e.at.sinceEpoch().ticks()));
        w.u64(e.requestId);
    }
    return w.take();
}

Result<ExecutionTrace>
ExecutionTrace::decode(const Bytes &blob)
{
    ByteReader r(blob);
    const std::uint32_t magic = r.getU32();
    if (r.ok() && magic != traceMagic)
        return Error(Errc::integrityFailure, "not a mintcb trace blob");

    ExecutionTrace trace;
    const std::uint32_t count = r.getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t kind = r.getU8();
        if (r.ok() && (kind < kindMin || kind > kindMax)) {
            return Error(Errc::integrityFailure,
                         "unknown trace event kind " +
                             std::to_string(kind));
        }
        TraceEvent e;
        e.kind = static_cast<TraceEventKind>(kind);
        e.cpu = r.getU32();
        e.subject = r.getStr();
        e.arg = r.getU64();
        e.at = TimePoint(
            Duration::picos(static_cast<std::int64_t>(r.getU64())));
        e.requestId = r.getU64();
        if (!r.ok())
            break;
        trace.append(std::move(e));
    }
    return r.finish(std::move(trace), Errc::integrityFailure,
                    "trailing trace bytes");
}

std::string
ExecutionTrace::str() const
{
    std::string out =
        "trace: " + std::to_string(events_.size()) + " events\n";
    for (const TraceEvent &e : events_)
        out += "  " + e.str() + "\n";
    return out;
}

void
TraceEventSource::onPalEvent(rec::ExecEvent event, CpuId cpu,
                             const rec::Secb &secb)
{
    TraceEvent e;
    switch (event) {
      case rec::ExecEvent::slaunchMeasure:
      case rec::ExecEvent::slaunchResume:
        e.kind = TraceEventKind::slaunch;
        break;
      case rec::ExecEvent::syield: e.kind = TraceEventKind::syield; break;
      case rec::ExecEvent::sfree: e.kind = TraceEventKind::sfree; break;
      case rec::ExecEvent::skill: e.kind = TraceEventKind::skill; break;
    }
    e.cpu = cpu;
    e.subject = secb.palName;
    e.arg = event == rec::ExecEvent::slaunchResume ? 1 : 0;
    e.at = clock_ ? clock_->cpu(cpu).now() : TimePoint();
    e.requestId = secb.requestId;
    onTraceEvent(std::move(e));
}

void
TraceEventSource::platformEvent(TraceEventKind kind, std::uint64_t arg)
{
    TraceEvent e;
    e.kind = kind;
    e.arg = arg;
    e.at = clock_ ? clock_->now() : TimePoint();
    onTraceEvent(std::move(e));
}

TraceRecorder::~TraceRecorder()
{
    if (exec_)
        exec_->syncObservers().remove(this);
    if (service_)
        service_->observers().remove(this);
}

void
TraceRecorder::attach(rec::SecureExecutive &exec)
{
    exec_ = &exec;
    clock_ = &exec.machine();
    exec.syncObservers().add(this);
}

void
TraceRecorder::attach(sea::ExecutionService &service)
{
    service_ = &service;
    service.observers().add(this);
    attach(service.executive());
}

void
TraceRecorder::noteSessionClose()
{
    platformEvent(TraceEventKind::sessionClose);
}

void
TraceRecorder::onTraceEvent(TraceEvent e)
{
    trace_.append(std::move(e));
}

} // namespace mintcb::verify
