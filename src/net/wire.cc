/**
 * @file
 * Wire protocol codecs.
 */

#include "net/wire.hh"

#include "common/bytebuf.hh"

namespace mintcb::net
{

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::hello: return "hello";
      case FrameType::challenge: return "challenge";
      case FrameType::auth: return "auth";
      case FrameType::authOk: return "authOk";
      case FrameType::submit: return "submit";
      case FrameType::report: return "report";
      case FrameType::busy: return "busy";
      case FrameType::flush: return "flush";
      case FrameType::bye: return "bye";
      case FrameType::error: return "error";
      case FrameType::migrateBegin: return "migrateBegin";
      case FrameType::migrateChallenge: return "migrateChallenge";
      case FrameType::migrate: return "migrate";
      case FrameType::migrated: return "migrated";
      case FrameType::ticket: return "ticket";
      case FrameType::resume: return "resume";
      case FrameType::resumed: return "resumed";
    }
    return "unknown";
}

namespace
{

bool
knownType(std::uint16_t t)
{
    return t >= static_cast<std::uint16_t>(FrameType::hello) &&
           t <= static_cast<std::uint16_t>(FrameType::resumed);
}

} // namespace

std::size_t
beginFrame(FrameType type, Bytes &out)
{
    const std::size_t frame_start = out.size();
    out.resize(frame_start + frameHeaderBytes);
    // The length field stays zero until endFrame patches it.
    RecordHeader{frameMagic, wireVersion, static_cast<std::uint16_t>(type),
                 0}
        .store(out.data() + frame_start);
    return frame_start;
}

void
endFrame(Bytes &out, std::size_t frame_start)
{
    storeBe32(out.data() + frame_start + RecordHeader::lengthOffset,
              static_cast<std::uint32_t>(out.size() - frame_start -
                                         frameHeaderBytes));
}

Bytes
encodeFrame(const Frame &frame)
{
    Bytes out;
    out.reserve(frameHeaderBytes + frame.payload.size());
    const std::size_t at = beginFrame(frame.type, out);
    out.insert(out.end(), frame.payload.begin(), frame.payload.end());
    endFrame(out, at);
    return out;
}

Result<bool>
takeFrameInto(const Bytes &buf, std::size_t &offset, Frame &out)
{
    const std::size_t avail = buf.size() - offset;
    if (avail < frameHeaderBytes)
        return false;

    const std::uint8_t *h = buf.data() + offset;
    const RecordHeader header = RecordHeader::load(h);
    if (header.magic != frameMagic)
        return Error(Errc::invalidArgument, "bad frame magic");
    if (header.version != wireVersion) {
        return Error(Errc::failedPrecondition,
                     "protocol version mismatch: peer speaks v" +
                         std::to_string(header.version) +
                         ", this side v" + std::to_string(wireVersion));
    }
    if (!knownType(header.type)) {
        return Error(Errc::invalidArgument,
                     "unknown frame type " + std::to_string(header.type));
    }
    const std::uint32_t length = header.length;
    if (length > maxFramePayload) {
        return Error(Errc::invalidArgument,
                     "oversized frame: " + std::to_string(length) +
                         " payload bytes > " +
                         std::to_string(maxFramePayload));
    }
    if (avail < frameHeaderBytes + length)
        return false; // wait for the rest

    out.type = static_cast<FrameType>(header.type);
    // assign() reuses out.payload's capacity: in steady state the
    // reactor's per-connection scratch frame stops allocating.
    out.payload.assign(h + frameHeaderBytes,
                       h + frameHeaderBytes + length);
    offset += frameHeaderBytes + length;
    return true;
}

Result<std::optional<Frame>>
takeFrame(Bytes &buf)
{
    std::size_t offset = 0;
    Frame frame;
    auto took = takeFrameInto(buf, offset, frame);
    if (!took)
        return took.error();
    if (!*took)
        return std::optional<Frame>{};
    buf.erase(buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(offset));
    return std::optional<Frame>{std::move(frame)};
}

void
encodeInto(const HelloPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.u16(p.version);
    w.lengthPrefixed(p.nonce);
    w.str(p.clientName);
}

Result<HelloPayload>
decodeHello(const Bytes &payload)
{
    ByteReader r(payload);
    HelloPayload p;
    p.version = r.getU16();
    p.nonce = r.getLengthPrefixed();
    p.clientName = r.getStr();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after hello");
}

void
encodeInto(const ChallengePayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.lengthPrefixed(p.attestation);
    w.lengthPrefixed(p.nonce);
}

Result<ChallengePayload>
decodeChallenge(const Bytes &payload)
{
    ByteReader r(payload);
    ChallengePayload p;
    p.attestation = r.getLengthPrefixed();
    p.nonce = r.getLengthPrefixed();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after challenge");
}

void
encodeInto(const AuthPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.lengthPrefixed(p.attestation);
}

Result<AuthPayload>
decodeAuth(const Bytes &payload)
{
    ByteReader r(payload);
    AuthPayload p;
    p.attestation = r.getLengthPrefixed();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after auth");
}

void
encodeInto(const AuthOkPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.u64(p.sessionId);
    w.str(p.subject);
}

Result<AuthOkPayload>
decodeAuthOk(const Bytes &payload)
{
    ByteReader r(payload);
    AuthOkPayload p;
    p.sessionId = r.getU64();
    p.subject = r.getStr();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after authOk");
}

void
encodeInto(const WireRequest &r, Bytes &out)
{
    ByteWriter w(out);
    w.u64(r.sequence);
    w.u64(r.affinity);
    w.u32(static_cast<std::uint32_t>(r.priority));
    w.u8(r.wantQuote ? 1 : 0);
    w.u32(r.dataPages);
    w.u64(static_cast<std::uint64_t>(r.slicedComputeTicks));
    w.u64(r.deadlineTicks);
    w.str(r.palName);
    w.str(r.backend);
    w.lengthPrefixed(r.input);
}

Result<WireRequest>
decodeSubmit(const Bytes &payload)
{
    ByteReader r(payload);
    WireRequest req;
    req.sequence = r.getU64();
    req.affinity = r.getU64();
    req.priority = static_cast<std::int32_t>(r.getU32());
    req.wantQuote = r.getU8() != 0;
    req.dataPages = r.getU32();
    req.slicedComputeTicks = static_cast<std::int64_t>(r.getU64());
    req.deadlineTicks = r.getU64();
    req.palName = r.getStr();
    req.backend = r.getStr();
    req.input = r.getLengthPrefixed();
    return r.finish(std::move(req), Errc::invalidArgument,
                    "trailing bytes after submit");
}

void
encodeInto(const ReportPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.u64(p.sequence);
    w.lengthPrefixed(p.report);
}

Result<ReportPayload>
decodeReport(const Bytes &payload)
{
    ByteReader r(payload);
    ReportPayload p;
    p.sequence = r.getU64();
    p.report = r.getLengthPrefixed();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after report");
}

void
encodeInto(const BusyPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.u64(p.sequence);
    w.u16(static_cast<std::uint16_t>(p.reason));
    w.u32(p.retryAfterMillis);
}

Result<BusyPayload>
decodeBusy(const Bytes &payload)
{
    ByteReader r(payload);
    BusyPayload p;
    p.sequence = r.getU64();
    const std::uint16_t reason = r.getU16();
    if (r.ok() &&
        reason != static_cast<std::uint16_t>(BusyReason::queueFull) &&
        reason != static_cast<std::uint16_t>(BusyReason::rateLimited)) {
        return Error(Errc::invalidArgument, "unknown busy reason");
    }
    p.reason = static_cast<BusyReason>(reason);
    p.retryAfterMillis = r.getU32();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after busy");
}

void
encodeInto(const ErrorPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.u16(p.code);
    w.str(p.message);
}

Result<ErrorPayload>
decodeError(const Bytes &payload)
{
    ByteReader r(payload);
    ErrorPayload p;
    p.code = r.getU16();
    p.message = r.getStr();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after error");
}

void
encodeInto(const MigrateBeginPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.str(p.storeName);
}

Result<MigrateBeginPayload>
decodeMigrateBegin(const Bytes &payload)
{
    ByteReader r(payload);
    MigrateBeginPayload p;
    p.storeName = r.getStr();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after migrateBegin");
}

void
encodeInto(const MigrateChallengePayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.lengthPrefixed(p.nonce);
}

Result<MigrateChallengePayload>
decodeMigrateChallenge(const Bytes &payload)
{
    ByteReader r(payload);
    MigrateChallengePayload p;
    p.nonce = r.getLengthPrefixed();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after migrateChallenge");
}

void
encodeInto(const MigratePayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.str(p.storeName);
    w.lengthPrefixed(p.nonce);
    w.lengthPrefixed(p.targetSrk);
    w.lengthPrefixed(p.attestation);
}

Result<MigratePayload>
decodeMigrate(const Bytes &payload)
{
    ByteReader r(payload);
    MigratePayload p;
    p.storeName = r.getStr();
    p.nonce = r.getLengthPrefixed();
    p.targetSrk = r.getLengthPrefixed();
    p.attestation = r.getLengthPrefixed();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after migrate");
}

void
encodeInto(const MigratedPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.lengthPrefixed(p.bundle);
}

Result<MigratedPayload>
decodeMigrated(const Bytes &payload)
{
    ByteReader r(payload);
    MigratedPayload p;
    p.bundle = r.getLengthPrefixed();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after migrated");
}

void
encodeInto(const TicketPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.lengthPrefixed(p.id);
    w.lengthPrefixed(p.secret);
    w.u64(p.epoch);
}

Result<TicketPayload>
decodeTicket(const Bytes &payload)
{
    ByteReader r(payload);
    TicketPayload p;
    p.id = r.getLengthPrefixed();
    p.secret = r.getLengthPrefixed();
    p.epoch = r.getU64();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after ticket");
}

void
encodeInto(const ResumePayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.lengthPrefixed(p.id);
    w.u64(p.epoch);
    w.lengthPrefixed(p.nonce);
    w.lengthPrefixed(p.proof);
}

Result<ResumePayload>
decodeResume(const Bytes &payload)
{
    ByteReader r(payload);
    ResumePayload p;
    p.id = r.getLengthPrefixed();
    p.epoch = r.getU64();
    p.nonce = r.getLengthPrefixed();
    p.proof = r.getLengthPrefixed();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after resume");
}

void
encodeInto(const ResumedPayload &p, Bytes &out)
{
    ByteWriter w(out);
    w.u64(p.sessionId);
    w.lengthPrefixed(p.proof);
}

Result<ResumedPayload>
decodeResumed(const Bytes &payload)
{
    ByteReader r(payload);
    ResumedPayload p;
    p.sessionId = r.getU64();
    p.proof = r.getLengthPrefixed();
    return r.finish(std::move(p), Errc::invalidArgument,
                    "trailing bytes after resumed");
}

Result<ReportSummary>
summarizeReport(const Bytes &encoded_report)
{
    // Mirrors sea::ExecutionReport::encode field for field.
    ByteReader r(encoded_report);
    auto picos = [&r] {
        return Duration::picos(static_cast<std::int64_t>(r.getU64()));
    };
    ReportSummary s;
    const std::string magic = r.getStr();
    if (r.ok() && magic != "EXR2")
        return Error(Errc::invalidArgument, "not an execution report");
    s.requestId = r.getU64();
    s.palName = r.getStr();
    s.backend = r.getStr();
    s.ok = r.getU8() != 0;
    if (!s.ok) {
        s.errorCode = r.getU8();
        s.errorMessage = r.getStr();
    }
    s.output = r.getLengthPrefixed();
    s.palMeasurement = r.getLengthPrefixed();
    s.quoted = r.getU8() != 0;
    if (s.quoted) {
        r.getLengthPrefixed(); // quote payload
        r.getLengthPrefixed(); // quote signature
    }
    // Canonical phases: launch, compute, transition, attestation,
    // teardown.
    s.launch = picos();
    s.palCompute = picos();
    s.transition = picos();
    s.attestation = picos();
    s.teardown = picos();
    // Capability-tagged sections: walked (totality), not surfaced in
    // the scalar summary beyond their count -- the raw bytes stay
    // authoritative for family-specific detail.
    s.sectionCount = r.getU32();
    for (std::uint32_t i = 0; i < s.sectionCount && r.ok(); ++i) {
        r.getU32(); // capability
        for (std::uint32_t n = r.getU32(), j = 0; j < n && r.ok(); ++j) {
            r.getStr(); // cost name
            r.getU64(); // picoseconds
        }
        for (std::uint32_t n = r.getU32(), j = 0; j < n && r.ok(); ++j) {
            r.getStr(); // count name
            r.getU64(); // value
        }
        for (std::uint32_t n = r.getU32(), j = 0; j < n && r.ok(); ++j) {
            r.getStr();            // evidence name
            r.getLengthPrefixed(); // evidence bytes
        }
    }
    picos(); // submittedAt
    picos(); // startedAt
    picos(); // finishedAt
    s.queueWait = picos();
    s.total = picos();
    s.launches = r.getU64();
    s.yields = r.getU64();
    r.getU32(); // cpu
    s.shard = r.getU32();
    s.deadlineMet = r.getU8() != 0;
    return r.finish(std::move(s), Errc::invalidArgument,
                    "trailing bytes after execution report");
}

} // namespace mintcb::net
