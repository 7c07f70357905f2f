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

constexpr std::uint32_t traceMagic = 0x4d544c32; // "MTL2"
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
    if (at != TimePoint())
        out += " t=" + at.sinceEpoch().str();
    return out;
}

void
ExecutionTrace::append(TraceEventKind kind, CpuId cpu, std::string subject,
                       std::uint64_t arg, TimePoint at)
{
    TraceEvent e;
    e.kind = kind;
    e.seq = events_.size();
    e.cpu = cpu;
    e.subject = std::move(subject);
    e.arg = arg;
    e.at = at;
    events_.push_back(std::move(e));
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
        const std::uint32_t cpu = r.getU32();
        std::string subject = r.getStr();
        const std::uint64_t arg = r.getU64();
        const std::uint64_t ticks = r.getU64();
        if (!r.ok())
            break;
        trace.append(static_cast<TraceEventKind>(kind), cpu,
                     std::move(subject), arg,
                     TimePoint(Duration::picos(
                         static_cast<std::int64_t>(ticks))));
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

TraceRecorder::~TraceRecorder()
{
    if (exec_)
        exec_->syncObservers().remove(this);
    if (service_ && service_->observer() == this)
        service_->setObserver(nullptr);
}

void
TraceRecorder::attach(rec::SecureExecutive &exec)
{
    exec_ = &exec;
    exec.syncObservers().add(this);
}

void
TraceRecorder::attach(sea::ExecutionService &service)
{
    service_ = &service;
    service.setObserver(this);
    attach(service.executive());
}

TimePoint
TraceRecorder::stamp(CpuId cpu) const
{
    if (!exec_)
        return {};
    return exec_->machine().cpu(cpu).now();
}

void
TraceRecorder::onPalEvent(rec::ExecEvent event, CpuId cpu,
                          const rec::Secb &secb)
{
    const TimePoint at = stamp(cpu);
    switch (event) {
      case rec::ExecEvent::slaunchMeasure:
        trace_.append(TraceEventKind::slaunch, cpu, secb.palName, 0, at);
        break;
      case rec::ExecEvent::slaunchResume:
        trace_.append(TraceEventKind::slaunch, cpu, secb.palName, 1, at);
        break;
      case rec::ExecEvent::syield:
        trace_.append(TraceEventKind::syield, cpu, secb.palName, 0, at);
        break;
      case rec::ExecEvent::sfree:
        trace_.append(TraceEventKind::sfree, cpu, secb.palName, 0, at);
        break;
      case rec::ExecEvent::skill:
        trace_.append(TraceEventKind::skill, cpu, secb.palName, 0, at);
        break;
    }
}

void
TraceRecorder::onBarrier()
{
    trace_.append(TraceEventKind::barrier, 0, {}, 0, stamp(0));
}

void
TraceRecorder::onDrainBegin(std::size_t queued)
{
    trace_.append(TraceEventKind::drainBegin, 0, {}, queued, stamp(0));
}

void
TraceRecorder::onDrainEnd(std::size_t completed)
{
    trace_.append(TraceEventKind::drainEnd, 0, {}, completed, stamp(0));
}

void
TraceRecorder::onSessionOpened()
{
    trace_.append(TraceEventKind::sessionOpen, 0, {}, 0, stamp(0));
}

void
TraceRecorder::onSessionResumed(std::uint64_t epoch)
{
    trace_.append(TraceEventKind::sessionResume, 0, {}, epoch, stamp(0));
}

void
TraceRecorder::onAuditExchange(std::size_t commands)
{
    trace_.append(TraceEventKind::transportExchange, 0, {}, commands, stamp(0));
}

void
TraceRecorder::noteSessionClose()
{
    trace_.append(TraceEventKind::sessionClose, 0, {}, 0, stamp(0));
}

} // namespace mintcb::verify
