/**
 * @file
 * mintcb-gate wire protocol: length-prefixed binary framing.
 *
 * The paper's SEA model (Section 2, Fig. 1) places the party invoking a
 * PAL and the party verifying its attestation *remote* from the
 * platform; this module is the byte-level contract between them and the
 * gateway. Every message is one frame:
 *
 *     u32 magic   "MGW1" (0x4d475731)
 *     u16 version (wireVersion; mismatches are refused, never guessed)
 *     u16 type    (FrameType)
 *     u32 length  (payload bytes that follow; <= maxFramePayload)
 *     ...payload...
 *
 * The header is the RecordHeader shared with the MWL1 log (both are
 * stored and loaded by common/bytebuf's one header codec). Payload
 * codecs reuse the TPM big-endian vocabulary (ByteWriter / ByteReader):
 * each payload has exactly one encoder, encodeInto(), which appends in
 * place; encode() wraps it. Every decode path returns a Result, so a
 * truncated, oversized, or garbage frame surfaces as a clean protocol
 * error -- never a crash, never a hang (tests/net/wire_test.cc fuzzes
 * this; tests/net/golden_frames_test.cc pins every frame type's bytes).
 */

#ifndef MINTCB_NET_WIRE_HH
#define MINTCB_NET_WIRE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytebuf.hh"
#include "common/result.hh"
#include "common/simtime.hh"
#include "common/types.hh"

namespace mintcb::net
{

/** Frame magic: "MGW1". */
inline constexpr std::uint32_t frameMagic = 0x4d475731;

/** Protocol revision carried in every frame header. */
inline constexpr std::uint16_t wireVersion = 1;

/** Fixed frame-header size on the wire (the shared RecordHeader). */
inline constexpr std::size_t frameHeaderBytes = RecordHeader::bytes;

/** Upper bound on one frame's payload (DoS guard: a malicious length
 *  field must not make the peer allocate unbounded memory). */
inline constexpr std::size_t maxFramePayload = 1u << 20;

/** Message kinds. The handshake is hello -> challenge -> auth ->
 *  [ticket ->] authOk, or resume -> resumed for a returning client;
 *  everything after authOk or resumed is request traffic. */
enum class FrameType : std::uint16_t
{
    hello = 1,     //!< client -> gw: version + client nonce + name
    challenge = 2, //!< gw -> client: gateway attestation + gw nonce
    auth = 3,      //!< client -> gw: client attestation over gw nonce
    authOk = 4,    //!< gw -> client: session admitted
    submit = 5,    //!< client -> gw: one PalRequest by registered name
    report = 6,    //!< gw -> client: encoded ExecutionReport
    busy = 7,      //!< gw -> client: backpressure, retry later
    flush = 8,     //!< client -> gw: drain pending work now
    bye = 9,       //!< client -> gw: graceful close
    error = 10,    //!< gw -> client: protocol/handshake refusal
    /** @name Attested state migration (DESIGN.md section 15.6).
     * Two rounds after authOk: the target asks for a challenge, quotes
     * its store identity over sha256(nonce || its SRK), and receives
     * the re-sealed bundle. @{ */
    migrateBegin = 11,     //!< client -> gw: name the store to migrate
    migrateChallenge = 12, //!< gw -> client: fresh challenge nonce
    migrate = 13,          //!< client -> gw: nonce + SRK + attestation
    migrated = 14,         //!< gw -> client: MigrationBundle bytes
    /** @} */
    /** @name Session resumption (DESIGN.md section 11.2).
     * After a full mutual attestation the gateway sends a ticket just
     * before authOk. A returning client sends resume instead of hello
     * and is answered with resumed (or error) in one round trip. @{ */
    ticket = 15,  //!< gw -> client: ticket id + secret + epoch
    resume = 16,  //!< client -> gw: ticket id, epoch, nonce, proof
    resumed = 17, //!< gw -> client: session admitted without a quote
    /** @} */
};

/** Printable frame-type name (logs, tests). */
const char *frameTypeName(FrameType t);

/** One parsed frame. */
struct Frame
{
    FrameType type = FrameType::error;
    Bytes payload;
};

/** Serialize a frame (header + payload). */
Bytes encodeFrame(const Frame &frame);

/** @name Zero-copy framing.
 * The reactor hot path never builds a frame in a temporary vector: it
 * opens a frame directly inside the connection's reusable tx buffer,
 * appends the payload in place, and patches the length afterwards.
 * encodeFrame is the same three steps over a fresh vector. @{ */

/**
 * Open a frame of @p type at the end of @p out: appends the header
 * with a zero length field and returns the frame's start offset.
 * Append the payload bytes, then call endFrame with the offset.
 */
std::size_t beginFrame(FrameType type, Bytes &out);

/** Patch the length field of the frame opened at @p frame_start to
 *  cover everything appended since beginFrame. */
void endFrame(Bytes &out, std::size_t frame_start);

/** @} */

/**
 * Try to take one complete frame off the front of @p buf (a socket
 * receive buffer). Returns the frame (consuming its bytes), nullopt
 * when more bytes are needed, or an Error for a malformed header (bad
 * magic, wrong version, oversized length) -- the connection should be
 * dropped, since resynchronization inside a byte stream is impossible.
 */
Result<std::optional<Frame>> takeFrame(Bytes &buf);

/**
 * Offset-based sibling of takeFrame for the reactor: parses the frame
 * at @p offset in @p buf into @p out (reusing out.payload's capacity)
 * and advances @p offset past it, without erasing consumed bytes --
 * the caller compacts the buffer once per reactor pass instead of
 * paying a memmove per frame. Returns true when a frame was taken,
 * false when more bytes are needed, or the same Errors as takeFrame.
 */
Result<bool> takeFrameInto(const Bytes &buf, std::size_t &offset,
                           Frame &out);

/** @name Handshake payloads. @{ */

struct HelloPayload
{
    std::uint16_t version = wireVersion; //!< client's protocol revision
    Bytes nonce;                         //!< freshness for the gw quote
    std::string clientName;              //!< display label
};

struct ChallengePayload
{
    Bytes attestation; //!< sea::Attestation::encode over client nonce
    Bytes nonce;       //!< gateway challenge the client must quote
};

struct AuthPayload
{
    Bytes attestation; //!< client attestation over the gateway nonce
};

struct AuthOkPayload
{
    std::uint64_t sessionId = 0;
    std::string subject; //!< gateway platform label
};

/** @} */

/** @name Request traffic payloads. @{ */

/** A PalRequest as it travels the wire. PAL *behavior* cannot travel
 *  (it is native code); the client names a PAL the gateway has
 *  registered (net::PalRegistry) and supplies the input bytes. */
struct WireRequest
{
    /** Client-assigned total-order key. Within one gateway drain cycle
     *  requests are admitted to the service in ascending sequence
     *  order, which is what carries the PR 4 determinism guarantee
     *  across the network (DESIGN.md section 11.4). Must be unique
     *  among the requests of one drain cycle. */
    std::uint64_t sequence = 0;
    std::uint64_t affinity = 0;        //!< PalRequest::affinity
    std::int32_t priority = 0;
    bool wantQuote = false;
    std::uint32_t dataPages = 1;
    std::int64_t slicedComputeTicks = 0; //!< Duration::ticks()
    std::uint64_t deadlineTicks = 0;     //!< since epoch; 0 = none
    std::string palName;
    /** Execution backend to run on (PalRequest::backend). Empty defers
     *  to the gateway registry's default; unknown names are refused at
     *  submit, before the request consumes service resources. */
    std::string backend;
    Bytes input;
};

struct ReportPayload
{
    std::uint64_t sequence = 0;
    Bytes report; //!< sea::ExecutionReport::encode()
};

/** Why the gateway refused to admit a request right now. */
enum class BusyReason : std::uint16_t
{
    queueFull = 1,   //!< bounded in-flight queue at capacity
    rateLimited = 2, //!< per-client token bucket empty
};

struct BusyPayload
{
    std::uint64_t sequence = 0;
    BusyReason reason = BusyReason::queueFull;
    std::uint32_t retryAfterMillis = 0;
};

struct ErrorPayload
{
    std::uint16_t code = 0; //!< Errc cast to the wire
    std::string message;
};

/** @name Migration payloads. @{ */

struct MigrateBeginPayload
{
    std::string storeName; //!< which gateway-side store to migrate
};

struct MigrateChallengePayload
{
    Bytes nonce; //!< single-use challenge the target must quote over
};

struct MigratePayload
{
    std::string storeName;
    Bytes nonce;       //!< echo of the challenge
    Bytes targetSrk;   //!< RsaPublicKey::encode of the receiving SRK
    Bytes attestation; //!< sea::Attestation over the bound nonce
};

struct MigratedPayload
{
    Bytes bundle; //!< store::MigrationBundle::encode
};

/** @} */

/** @name Resumption payloads. @{ */

struct TicketPayload
{
    Bytes id;     //!< ticketIdBytes from OS entropy
    Bytes secret; //!< ticketSecretBytes from OS entropy
    std::uint64_t epoch = 0;
};

struct ResumePayload
{
    Bytes id;
    std::uint64_t epoch = 0; //!< the epoch the client holds
    Bytes nonce;             //!< client freshness for the resumed proof
    Bytes proof;             //!< resumeProof(secret, id, epoch, nonce)
};

struct ResumedPayload
{
    std::uint64_t sessionId = 0;
    Bytes proof; //!< resumedProof(secret, epoch, nonce)
};

/** @} */

/** @} */

/** @name Payload codecs.
 * One encoder per payload, appending to a caller-owned buffer
 * (typically between beginFrame/endFrame); encode() wraps it for
 * callers that want a fresh vector. All decoders are total: any byte
 * string in, clean Result out. @{ */
void encodeInto(const HelloPayload &p, Bytes &out);
void encodeInto(const ChallengePayload &p, Bytes &out);
void encodeInto(const AuthPayload &p, Bytes &out);
void encodeInto(const AuthOkPayload &p, Bytes &out);
void encodeInto(const WireRequest &r, Bytes &out);
void encodeInto(const ReportPayload &p, Bytes &out);
void encodeInto(const BusyPayload &p, Bytes &out);
void encodeInto(const ErrorPayload &p, Bytes &out);
void encodeInto(const MigrateBeginPayload &p, Bytes &out);
void encodeInto(const MigrateChallengePayload &p, Bytes &out);
void encodeInto(const MigratePayload &p, Bytes &out);
void encodeInto(const MigratedPayload &p, Bytes &out);
void encodeInto(const TicketPayload &p, Bytes &out);
void encodeInto(const ResumePayload &p, Bytes &out);
void encodeInto(const ResumedPayload &p, Bytes &out);

/** Any payload as a fresh vector. */
template <class P>
Bytes
encode(const P &p)
{
    Bytes out;
    encodeInto(p, out);
    return out;
}

Result<HelloPayload> decodeHello(const Bytes &payload);
Result<ChallengePayload> decodeChallenge(const Bytes &payload);
Result<AuthPayload> decodeAuth(const Bytes &payload);
Result<AuthOkPayload> decodeAuthOk(const Bytes &payload);
Result<WireRequest> decodeSubmit(const Bytes &payload);
Result<ReportPayload> decodeReport(const Bytes &payload);
Result<BusyPayload> decodeBusy(const Bytes &payload);
Result<ErrorPayload> decodeError(const Bytes &payload);
Result<MigrateBeginPayload> decodeMigrateBegin(const Bytes &payload);
Result<MigrateChallengePayload>
decodeMigrateChallenge(const Bytes &payload);
Result<MigratePayload> decodeMigrate(const Bytes &payload);
Result<MigratedPayload> decodeMigrated(const Bytes &payload);
Result<TicketPayload> decodeTicket(const Bytes &payload);
Result<ResumePayload> decodeResume(const Bytes &payload);
Result<ResumedPayload> decodeResumed(const Bytes &payload);
/** @} */

/**
 * Scalar view of an encoded sea::ExecutionReport, parsed back out of
 * the wire bytes so a remote client can inspect the result without
 * linking the service layer's types. The raw bytes stay authoritative
 * (byte-identity checks compare them directly).
 */
struct ReportSummary
{
    std::uint64_t requestId = 0;
    std::string palName;
    std::string backend; //!< execution backend that produced it
    bool ok = true;
    std::uint16_t errorCode = 0;
    std::string errorMessage;
    Bytes output;
    Bytes palMeasurement;
    bool quoted = false;
    /** @name Canonical cross-architecture phases. @{ */
    Duration launch;
    Duration palCompute; //!< the compute phase
    Duration transition;
    Duration attestation;
    Duration teardown;
    /** @} */
    std::uint32_t sectionCount = 0; //!< capability sections present
    Duration queueWait;
    Duration total;
    std::uint64_t launches = 0;
    std::uint64_t yields = 0;
    std::uint32_t shard = 0;
    bool deadlineMet = true;
};

/** Parse the fields out of ExecutionReport::encode() bytes. */
Result<ReportSummary> summarizeReport(const Bytes &encoded_report);

} // namespace mintcb::net

#endif // MINTCB_NET_WIRE_HH
