/**
 * @file
 * Blocking gateway client: attested connect, pipelined submits,
 * busy-aware collection.
 *
 * The client is the remote party of the paper's model: before it
 * entrusts inputs to the platform it *verifies* the gateway's
 * attestation (PCR 17 quote over a nonce the client just drew,
 * AIK certificate chained to the Privacy CA), and it must present its
 * own attestation before the gateway will take work. After the
 * handshake the client pipelines submit frames, flushes, and collects
 * reports; `busy` backpressure frames are retried with the gateway's
 * own retry hint rather than treated as failures. The ticket a full
 * handshake earns lets the next connect to the same gateway resume
 * without either side quoting.
 */

#ifndef MINTCB_NET_CLIENT_HH
#define MINTCB_NET_CLIENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/handshake.hh"
#include "net/socket.hh"
#include "net/wire.hh"

namespace mintcb::store
{
class SealedStore; // defined in store/engine.hh
}

namespace mintcb::net
{

/** A session ticket the client holds, keyed to the gateway that
 *  issued it (DESIGN.md section 11.2). */
struct SessionTicket
{
    std::uint16_t port = 0; //!< where the issuing gateway listened
    std::string subject;    //!< gateway subject the full handshake verified
    Bytes id;
    Bytes secret;
    std::uint64_t epoch = 0; //!< advances with every admitted resume
};

/** Client tuning. */
struct ClientConfig
{
    /** Display name sent in hello and used for the identity PAL. */
    std::string name = "mintcb-client";

    /** Seed for the client's attested-identity machine. */
    std::uint64_t identitySeed = 2;

    /** Called before each busy retry with the gateway's retry hint;
     *  defaults to sleeping that many milliseconds (capped at 100).
     *  Tests inject a no-op to keep wall time down. */
    std::function<void(std::uint32_t)> backoff;
};

/**
 * One attested session against a mintcb-gate instance.
 *
 *     GatewayClient client(config);
 *     client.connect(port);              // TCP + mutual attestation
 *     auto reports = client.runBatch(requests);
 *     client.bye();
 *
 * Not thread-safe; one instance per connection, one connection per
 * thread.
 */
class GatewayClient
{
  public:
    explicit GatewayClient(ClientConfig config = {});

    /** Socket connect/read timeout (ms). */
    static constexpr int timeoutMillis = 30000;

    /** Give up after this many busy retries for one request. */
    static constexpr int maxBusyRetries = 1000;

    /** Did the local identity machine launch? (Checked by connect.) */
    bool identityOk() const { return identity_.ok(); }
    AttestedIdentity &identity() { return identity_; }

    /**
     * Connect to 127.0.0.1:@p port. Holding a ticket from an earlier
     * session at @p port, resume in one round trip with no quote;
     * otherwise run the full handshake. A refused resume drops the
     * ticket and runs the full handshake on a fresh connection.
     */
    Status connect(std::uint16_t port);

    bool connected() const { return channel_ != nullptr; }
    std::uint64_t sessionId() const { return sessionId_; }

    /** Subject string the gateway's verified attestation carried. */
    const std::string &gatewaySubject() const { return gatewaySubject_; }

    /**
     * Pipeline every request, flush, and collect one report per
     * request (retrying busy responses per the gateway's hint).
     * Reports come back sorted by sequence. Sequences must be unique
     * within the batch.
     */
    Result<std::vector<ReportPayload>>
    runBatch(const std::vector<WireRequest> &requests);

    /** Single-request convenience over runBatch. */
    Result<ReportPayload> call(const WireRequest &request);

    /**
     * Drive the MIGRATE verbs on behalf of @p target, the receiving
     * (empty) store on this side: request a challenge for
     * @p store_name, quote the target's launch identity over
     * sha256(nonce || target SRK), and adopt the returned bundle. On
     * success the target holds the migrated state at a fresh epoch and
     * the gateway-side source is permanently invalidated.
     */
    Status migrateInto(store::SealedStore &target,
                       const std::string &store_name);

    /** @name Low-level access (tests, load generators). @{ */
    Status submit(const WireRequest &request);
    Status flush();
    /** Send one arbitrary frame (protocol-violation tests). */
    Status sendFrame(FrameType type, const Bytes &payload);
    /** Block for the next frame of any type. */
    Result<Frame> recvFrame();
    /** The held session ticket, if any (refusal tests alter it). */
    std::optional<SessionTicket> &ticket() { return ticket_; }
    /** @} */

    /** Graceful goodbye + close. */
    void bye();
    void close();

    /** Busy frames absorbed over the connection's lifetime. */
    std::uint64_t busyResponses() const { return busyResponses_; }

  private:
    /** TCP connect to @p port, replacing any open channel. */
    Status open(std::uint16_t port);
    /** hello -> challenge -> auth -> [ticket ->] authOk. */
    Status handshake(std::uint16_t port);
    /** resume -> resumed with the held ticket. */
    Status resume(std::uint16_t port);
    /** close() and return @p error: how a failed connect ends. */
    Status abandon(Error error);

    ClientConfig config_;
    AttestedIdentity identity_;
    sea::Verifier gatewayVerifier_;
    std::unique_ptr<FrameChannel> channel_;
    /** Reusable encode buffer: submits and batches are framed in
     *  place here (beginFrame/endFrame), so steady-state submission
     *  allocates nothing. */
    Bytes txBuf_;
    std::uint64_t sessionId_ = 0;
    std::string gatewaySubject_;
    std::uint64_t busyResponses_ = 0;
    std::optional<SessionTicket> ticket_;
};

} // namespace mintcb::net

#endif // MINTCB_NET_CLIENT_HH
