/**
 * @file
 * Gateway client implementation.
 */

#include "net/client.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "crypto/hmac.hh"
#include "store/migrate.hh"

namespace mintcb::net
{

namespace
{

/** Turn a gateway error frame back into a local Error. */
Error
errorFromFrame(const Frame &frame)
{
    auto payload = decodeError(frame.payload);
    if (!payload)
        return Error(Errc::integrityFailure,
                     "gateway sent an undecodable error frame");
    return Error(static_cast<Errc>(payload->code),
                 "gateway: " + payload->message);
}

/** Ok when @p frame has type @p want; else the gateway's error, or a
 *  protocol error naming both types. */
Status
expectType(const Frame &frame, FrameType want)
{
    if (frame.type == want)
        return okStatus();
    if (frame.type == FrameType::error)
        return errorFromFrame(frame);
    return Error(Errc::failedPrecondition, std::string("expected ") +
                                               frameTypeName(want) +
                                               ", got " +
                                               frameTypeName(frame.type));
}

void
defaultBackoff(std::uint32_t retry_after_ms)
{
    const std::uint32_t ms = std::min<std::uint32_t>(retry_after_ms, 100);
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace

GatewayClient::GatewayClient(ClientConfig config)
    : config_(std::move(config)),
      identity_(config_.name, AttestedIdentity::clientPal(config_.name),
                config_.identitySeed)
{
    if (!config_.backoff)
        config_.backoff = defaultBackoff;
    gatewayVerifier_.trustPal(AttestedIdentity::gatewayPal());
}

Status
GatewayClient::open(std::uint16_t port)
{
    auto stream = TcpStream::connectLoopback(port, timeoutMillis);
    if (!stream)
        return stream.error();
    channel_ = std::make_unique<FrameChannel>(stream.take());
    return okStatus();
}

Status
GatewayClient::abandon(Error error)
{
    close();
    return error;
}

Status
GatewayClient::connect(std::uint16_t port)
{
    if (!identity_.ok())
        return identity_.launchStatus();
    if (ticket_ && ticket_->port == port) {
        if (resume(port).ok())
            return okStatus();
        // Whatever the refusal, the ticket is spent: attest in full on
        // a fresh connection.
        ticket_.reset();
    }
    return handshake(port);
}

Status
GatewayClient::handshake(std::uint16_t port)
{
    if (auto s = open(port); !s.ok())
        return s;

    HelloPayload hello;
    hello.nonce = identity_.freshNonce();
    hello.clientName = config_.name;
    if (auto s = channel_->send({FrameType::hello, encode(hello)});
        !s.ok()) {
        return abandon(s.error());
    }

    auto frame = channel_->recv();
    if (!frame)
        return abandon(frame.error());
    if (auto s = expectType(*frame, FrameType::challenge); !s.ok())
        return abandon(s.error());
    auto challenge = decodeChallenge(frame->payload);
    if (!challenge)
        return abandon(challenge.error());

    // The trust decision the paper gives the remote party: refuse to
    // hand over inputs unless the platform proves, against our fresh
    // nonce, that PCR 17 holds a whitelisted gateway PAL.
    auto gatewayAttestation =
        sea::Attestation::decode(challenge->attestation);
    if (!gatewayAttestation)
        return abandon(gatewayAttestation.error());
    auto verdict = gatewayVerifier_.verify(*gatewayAttestation, hello.nonce);
    if (!verdict)
        return abandon(verdict.error());
    gatewaySubject_ = gatewayAttestation->aikCert.subject;

    auto attestation = identity_.attest(challenge->nonce);
    if (!attestation)
        return abandon(attestation.error());
    AuthPayload auth;
    auth.attestation = attestation->encode();
    if (auto s = channel_->send({FrameType::auth, encode(auth)});
        !s.ok()) {
        return abandon(s.error());
    }

    auto reply = channel_->recv();
    if (!reply)
        return abandon(reply.error());
    std::optional<SessionTicket> issued;
    if (reply->type == FrameType::ticket) {
        auto ticket = decodeTicket(reply->payload);
        if (!ticket)
            return abandon(ticket.error());
        issued = SessionTicket{port, gatewaySubject_, ticket->id,
                               ticket->secret, ticket->epoch};
        reply = channel_->recv();
        if (!reply)
            return abandon(reply.error());
    }
    if (auto s = expectType(*reply, FrameType::authOk); !s.ok())
        return abandon(s.error());
    auto ok = decodeAuthOk(reply->payload);
    if (!ok)
        return abandon(ok.error());
    sessionId_ = ok->sessionId;
    if (issued)
        ticket_ = std::move(issued);
    return okStatus();
}

Status
GatewayClient::resume(std::uint16_t port)
{
    if (auto s = open(port); !s.ok())
        return s;
    SessionTicket &ticket = *ticket_;
    ResumePayload resume;
    resume.id = ticket.id;
    resume.epoch = ticket.epoch;
    // OS entropy, not the identity machine: a resume moves no seeded
    // nonce stream.
    resume.nonce = osRandomBytes(handshakeNonceBytes);
    resume.proof =
        resumeProof(ticket.secret, ticket.id, ticket.epoch, resume.nonce);
    if (auto s = channel_->send({FrameType::resume, encode(resume)});
        !s.ok()) {
        return abandon(s.error());
    }

    auto reply = channel_->recv();
    if (!reply)
        return abandon(reply.error());
    if (auto s = expectType(*reply, FrameType::resumed); !s.ok())
        return abandon(s.error());
    auto resumed = decodeResumed(reply->payload);
    if (!resumed)
        return abandon(resumed.error());
    // Only the issuing gateway holds the secret: its answer proves the
    // far end is the gateway the full handshake verified.
    if (!crypto::constantTimeEqual(
            resumed->proof,
            resumedProof(ticket.secret, ticket.epoch, resume.nonce))) {
        return abandon(Error(Errc::integrityFailure,
                             "gateway's resumed proof does not verify"));
    }
    ++ticket.epoch;
    sessionId_ = resumed->sessionId;
    gatewaySubject_ = ticket.subject;
    return okStatus();
}

Status
GatewayClient::submit(const WireRequest &request)
{
    if (!connected())
        return Error(Errc::failedPrecondition, "not connected");
    txBuf_.clear();
    encodeInto(request, txBuf_);
    return channel_->send(FrameType::submit, txBuf_);
}

Status
GatewayClient::migrateInto(store::SealedStore &target,
                           const std::string &store_name)
{
    if (!connected())
        return Error(Errc::failedPrecondition, "not connected");

    // Round 1: ask for a challenge.
    MigrateBeginPayload begin;
    begin.storeName = store_name;
    txBuf_.clear();
    encodeInto(begin, txBuf_);
    if (auto s = channel_->send(FrameType::migrateBegin, txBuf_);
        !s.ok()) {
        return s;
    }
    auto challengeFrame = channel_->recv();
    if (!challengeFrame)
        return challengeFrame.error();
    if (challengeFrame->type == FrameType::error) {
        auto err = decodeError(challengeFrame->payload);
        if (!err)
            return err.error();
        return Error(static_cast<Errc>(err->code), err->message);
    }
    if (challengeFrame->type != FrameType::migrateChallenge) {
        return Error(Errc::failedPrecondition,
                     std::string("expected migrateChallenge, got ") +
                         frameTypeName(challengeFrame->type));
    }
    auto challenge = decodeMigrateChallenge(challengeFrame->payload);
    if (!challenge)
        return challenge.error();

    // Round 2: the target quotes its launch identity over the bound
    // nonce, stapled to the SRK that will receive the state.
    auto attestation = target.attestForMigration(challenge->nonce);
    if (!attestation)
        return attestation.error();
    MigratePayload migrate;
    migrate.storeName = store_name;
    migrate.nonce = challenge->nonce;
    migrate.targetSrk = target.srkPublicEncoded();
    migrate.attestation = attestation->encode();
    txBuf_.clear();
    encodeInto(migrate, txBuf_);
    if (auto s = channel_->send(FrameType::migrate, txBuf_); !s.ok())
        return s;
    auto doneFrame = channel_->recv();
    if (!doneFrame)
        return doneFrame.error();
    if (doneFrame->type == FrameType::error) {
        auto err = decodeError(doneFrame->payload);
        if (!err)
            return err.error();
        return Error(static_cast<Errc>(err->code), err->message);
    }
    if (doneFrame->type != FrameType::migrated) {
        return Error(Errc::failedPrecondition,
                     std::string("expected migrated, got ") +
                         frameTypeName(doneFrame->type));
    }
    auto done = decodeMigrated(doneFrame->payload);
    if (!done)
        return done.error();
    return store::MigrationAuthority::adopt(target, done->bundle);
}

Status
GatewayClient::sendFrame(FrameType type, const Bytes &payload)
{
    if (!connected())
        return Error(Errc::failedPrecondition, "not connected");
    return channel_->send(type, payload);
}

Status
GatewayClient::flush()
{
    if (!connected())
        return Error(Errc::failedPrecondition, "not connected");
    return channel_->send({FrameType::flush, Bytes{}});
}

Result<Frame>
GatewayClient::recvFrame()
{
    if (!connected())
        return Error(Errc::failedPrecondition, "not connected");
    return channel_->recv();
}

Result<std::vector<ReportPayload>>
GatewayClient::runBatch(const std::vector<WireRequest> &requests)
{
    if (!connected())
        return Error(Errc::failedPrecondition, "not connected");
    std::map<std::uint64_t, const WireRequest *> outstanding;
    std::map<std::uint64_t, int> retries;
    for (const WireRequest &r : requests) {
        if (!outstanding.emplace(r.sequence, &r).second) {
            return Error(Errc::invalidArgument,
                         "duplicate sequence " +
                             std::to_string(r.sequence) +
                             " within one batch");
        }
    }
    // The whole batch -- every submit frame plus the trailing flush --
    // is framed in place in the reusable buffer and handed to the
    // kernel in one write, instead of a syscall (and a frame
    // allocation) per request.
    txBuf_.clear();
    for (const WireRequest &r : requests) {
        const std::size_t at = beginFrame(FrameType::submit, txBuf_);
        encodeInto(r, txBuf_);
        endFrame(txBuf_, at);
    }
    endFrame(txBuf_, beginFrame(FrameType::flush, txBuf_));
    if (auto s = channel_->sendRaw(txBuf_); !s.ok())
        return s.error();

    std::vector<ReportPayload> reports;
    while (!outstanding.empty()) {
        auto frame = channel_->recv();
        if (!frame)
            return frame.error();
        switch (frame->type) {
        case FrameType::report: {
            auto payload = decodeReport(frame->payload);
            if (!payload)
                return payload.error();
            // A report for a sequence this batch never sent, or one it
            // already answered, is refused: accepting it would hand the
            // caller another request's result.
            if (outstanding.erase(payload->sequence) == 0) {
                return Error(Errc::integrityFailure,
                             "report for sequence " +
                                 std::to_string(payload->sequence) +
                                 " that this batch did not send or "
                                 "already answered");
            }
            reports.push_back(payload.take());
            break;
        }
        case FrameType::busy: {
            auto busy = decodeBusy(frame->payload);
            if (!busy)
                return busy.error();
            ++busyResponses_;
            auto it = outstanding.find(busy->sequence);
            if (it == outstanding.end())
                break; // stale busy for a request we already dropped
            if (++retries[busy->sequence] > maxBusyRetries) {
                return Error(Errc::resourceExhausted,
                             "request " +
                                 std::to_string(busy->sequence) +
                                 " still refused after " +
                                 std::to_string(maxBusyRetries) +
                                 " busy retries");
            }
            config_.backoff(busy->retryAfterMillis);
            if (auto s = submit(*it->second); !s.ok())
                return s.error();
            if (auto s = flush(); !s.ok())
                return s.error();
            break;
        }
        case FrameType::error:
            return errorFromFrame(*frame);
        default:
            return Error(Errc::failedPrecondition,
                         std::string("unexpected frame: ") +
                             frameTypeName(frame->type));
        }
    }
    std::sort(reports.begin(), reports.end(),
              [](const ReportPayload &a, const ReportPayload &b) {
                  return a.sequence < b.sequence;
              });
    return reports;
}

Result<ReportPayload>
GatewayClient::call(const WireRequest &request)
{
    auto reports = runBatch({request});
    if (!reports)
        return reports.error();
    if (reports->size() != 1)
        return Error(Errc::integrityFailure,
                     "expected exactly one report");
    return std::move(reports->front());
}

void
GatewayClient::bye()
{
    if (connected())
        (void)channel_->send({FrameType::bye, Bytes{}});
    close();
}

void
GatewayClient::close()
{
    if (channel_) {
        channel_->close();
        channel_.reset();
    }
    sessionId_ = 0;
}

} // namespace mintcb::net
