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
    }
    return "unknown";
}

namespace
{

bool
knownType(std::uint16_t t)
{
    return t >= static_cast<std::uint16_t>(FrameType::hello) &&
           t <= static_cast<std::uint16_t>(FrameType::migrated);
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

namespace
{

/** Every decoder ends with this: trailing bytes mean a codec mismatch
 *  and must be refused, not silently ignored. */
Status
finish(const ByteReader &r, const char *what)
{
    if (!r.atEnd()) {
        return Error(Errc::invalidArgument,
                     std::string("trailing bytes after ") + what);
    }
    return okStatus();
}

} // namespace

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
    auto version = r.u16();
    if (!version)
        return version.error();
    p.version = *version;
    auto nonce = r.lengthPrefixed();
    if (!nonce)
        return nonce.error();
    p.nonce = nonce.take();
    auto name = r.str();
    if (!name)
        return name.error();
    p.clientName = name.take();
    if (auto s = finish(r, "hello"); !s.ok())
        return s.error();
    return p;
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
    auto att = r.lengthPrefixed();
    if (!att)
        return att.error();
    p.attestation = att.take();
    auto nonce = r.lengthPrefixed();
    if (!nonce)
        return nonce.error();
    p.nonce = nonce.take();
    if (auto s = finish(r, "challenge"); !s.ok())
        return s.error();
    return p;
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
    auto att = r.lengthPrefixed();
    if (!att)
        return att.error();
    p.attestation = att.take();
    if (auto s = finish(r, "auth"); !s.ok())
        return s.error();
    return p;
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
    auto id = r.u64();
    if (!id)
        return id.error();
    p.sessionId = *id;
    auto subject = r.str();
    if (!subject)
        return subject.error();
    p.subject = subject.take();
    if (auto s = finish(r, "authOk"); !s.ok())
        return s.error();
    return p;
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
    auto sequence = r.u64();
    if (!sequence)
        return sequence.error();
    req.sequence = *sequence;
    auto affinity = r.u64();
    if (!affinity)
        return affinity.error();
    req.affinity = *affinity;
    auto priority = r.u32();
    if (!priority)
        return priority.error();
    req.priority = static_cast<std::int32_t>(*priority);
    auto want_quote = r.u8();
    if (!want_quote)
        return want_quote.error();
    req.wantQuote = *want_quote != 0;
    auto data_pages = r.u32();
    if (!data_pages)
        return data_pages.error();
    req.dataPages = *data_pages;
    auto compute = r.u64();
    if (!compute)
        return compute.error();
    req.slicedComputeTicks = static_cast<std::int64_t>(*compute);
    auto deadline = r.u64();
    if (!deadline)
        return deadline.error();
    req.deadlineTicks = *deadline;
    auto name = r.str();
    if (!name)
        return name.error();
    req.palName = name.take();
    auto backend = r.str();
    if (!backend)
        return backend.error();
    req.backend = backend.take();
    auto input = r.lengthPrefixed();
    if (!input)
        return input.error();
    req.input = input.take();
    if (auto s = finish(r, "submit"); !s.ok())
        return s.error();
    return req;
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
    auto sequence = r.u64();
    if (!sequence)
        return sequence.error();
    p.sequence = *sequence;
    auto report = r.lengthPrefixed();
    if (!report)
        return report.error();
    p.report = report.take();
    if (auto s = finish(r, "report"); !s.ok())
        return s.error();
    return p;
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
    auto sequence = r.u64();
    if (!sequence)
        return sequence.error();
    p.sequence = *sequence;
    auto reason = r.u16();
    if (!reason)
        return reason.error();
    if (*reason != static_cast<std::uint16_t>(BusyReason::queueFull) &&
        *reason !=
            static_cast<std::uint16_t>(BusyReason::rateLimited)) {
        return Error(Errc::invalidArgument, "unknown busy reason");
    }
    p.reason = static_cast<BusyReason>(*reason);
    auto retry = r.u32();
    if (!retry)
        return retry.error();
    p.retryAfterMillis = *retry;
    if (auto s = finish(r, "busy"); !s.ok())
        return s.error();
    return p;
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
    auto code = r.u16();
    if (!code)
        return code.error();
    p.code = *code;
    auto message = r.str();
    if (!message)
        return message.error();
    p.message = message.take();
    if (auto s = finish(r, "error"); !s.ok())
        return s.error();
    return p;
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
    auto name = r.str();
    if (!name)
        return name.error();
    p.storeName = name.take();
    if (auto s = finish(r, "migrateBegin"); !s.ok())
        return s.error();
    return p;
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
    auto nonce = r.lengthPrefixed();
    if (!nonce)
        return nonce.error();
    p.nonce = nonce.take();
    if (auto s = finish(r, "migrateChallenge"); !s.ok())
        return s.error();
    return p;
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
    auto name = r.str();
    if (!name)
        return name.error();
    p.storeName = name.take();
    auto nonce = r.lengthPrefixed();
    if (!nonce)
        return nonce.error();
    p.nonce = nonce.take();
    auto srk = r.lengthPrefixed();
    if (!srk)
        return srk.error();
    p.targetSrk = srk.take();
    auto att = r.lengthPrefixed();
    if (!att)
        return att.error();
    p.attestation = att.take();
    if (auto s = finish(r, "migrate"); !s.ok())
        return s.error();
    return p;
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
    auto bundle = r.lengthPrefixed();
    if (!bundle)
        return bundle.error();
    p.bundle = bundle.take();
    if (auto s = finish(r, "migrated"); !s.ok())
        return s.error();
    return p;
}

Result<ReportSummary>
summarizeReport(const Bytes &encoded_report)
{
    // Mirrors sea::ExecutionReport::encode field for field.
    ByteReader r(encoded_report);
    ReportSummary s;
    auto magic = r.str();
    if (!magic)
        return magic.error();
    if (*magic != "EXR2")
        return Error(Errc::invalidArgument, "not an execution report");
    auto id = r.u64();
    if (!id)
        return id.error();
    s.requestId = *id;
    auto name = r.str();
    if (!name)
        return name.error();
    s.palName = name.take();
    auto backend = r.str();
    if (!backend)
        return backend.error();
    s.backend = backend.take();
    auto okflag = r.u8();
    if (!okflag)
        return okflag.error();
    s.ok = *okflag != 0;
    if (!s.ok) {
        auto code = r.u8();
        if (!code)
            return code.error();
        s.errorCode = *code;
        auto message = r.str();
        if (!message)
            return message.error();
        s.errorMessage = message.take();
    }
    auto output = r.lengthPrefixed();
    if (!output)
        return output.error();
    s.output = output.take();
    auto measurement = r.lengthPrefixed();
    if (!measurement)
        return measurement.error();
    s.palMeasurement = measurement.take();
    auto quoted = r.u8();
    if (!quoted)
        return quoted.error();
    s.quoted = *quoted != 0;
    if (s.quoted) {
        auto payload = r.lengthPrefixed();
        if (!payload)
            return payload.error();
        auto signature = r.lengthPrefixed();
        if (!signature)
            return signature.error();
    }
    // Canonical phases: launch, compute, transition, attestation,
    // teardown.
    std::int64_t phases[5] = {};
    for (auto &d : phases) {
        auto v = r.u64();
        if (!v)
            return v.error();
        d = static_cast<std::int64_t>(*v);
    }
    s.launch = Duration::picos(phases[0]);
    s.palCompute = Duration::picos(phases[1]);
    s.transition = Duration::picos(phases[2]);
    s.attestation = Duration::picos(phases[3]);
    s.teardown = Duration::picos(phases[4]);
    // Capability-tagged sections: walked (totality), not surfaced in
    // the scalar summary beyond their count -- the raw bytes stay
    // authoritative for family-specific detail.
    auto section_count = r.u32();
    if (!section_count)
        return section_count.error();
    s.sectionCount = *section_count;
    for (std::uint32_t i = 0; i < s.sectionCount; ++i) {
        if (auto cap = r.u32(); !cap)
            return cap.error();
        auto n_costs = r.u32();
        if (!n_costs)
            return n_costs.error();
        for (std::uint32_t j = 0; j < *n_costs; ++j) {
            if (auto k = r.str(); !k)
                return k.error();
            if (auto v = r.u64(); !v)
                return v.error();
        }
        auto n_counts = r.u32();
        if (!n_counts)
            return n_counts.error();
        for (std::uint32_t j = 0; j < *n_counts; ++j) {
            if (auto k = r.str(); !k)
                return k.error();
            if (auto v = r.u64(); !v)
                return v.error();
        }
        auto n_evidence = r.u32();
        if (!n_evidence)
            return n_evidence.error();
        for (std::uint32_t j = 0; j < *n_evidence; ++j) {
            if (auto k = r.str(); !k)
                return k.error();
            if (auto v = r.lengthPrefixed(); !v)
                return v.error();
        }
    }
    // submittedAt, startedAt, finishedAt, queueWait, total.
    std::int64_t times[5] = {};
    for (auto &d : times) {
        auto v = r.u64();
        if (!v)
            return v.error();
        d = static_cast<std::int64_t>(*v);
    }
    s.queueWait = Duration::picos(times[3]);
    s.total = Duration::picos(times[4]);
    auto launches = r.u64();
    if (!launches)
        return launches.error();
    s.launches = *launches;
    auto yields = r.u64();
    if (!yields)
        return yields.error();
    s.yields = *yields;
    auto cpu = r.u32();
    if (!cpu)
        return cpu.error();
    auto shard = r.u32();
    if (!shard)
        return shard.error();
    s.shard = *shard;
    auto deadline_met = r.u8();
    if (!deadline_met)
        return deadline_met.error();
    s.deadlineMet = *deadline_met != 0;
    if (auto st = finish(r, "execution report"); !st.ok())
        return st.error();
    return s;
}

} // namespace mintcb::net
