/**
 * @file
 * mintcb-gate: the attested network gateway (tentpole of the net
 * layer).
 *
 * Everything below this file is in-process; the gateway is the first
 * component an *external* party can talk to. It owns a loopback TCP
 * listener and a single-threaded reactor (poll + non-blocking
 * sockets) that:
 *
 *  - runs the attested-session handshake (net/handshake.hh) and
 *    refuses, before any submit() reaches the service, every
 *    connection whose quote fails sea::Verifier::verifyFresh;
 *  - issues a session ticket after each full handshake and admits a
 *    returning client that proves possession of it, with no quote and
 *    no RSA operation;
 *  - enforces admission control on host time: a bounded in-flight
 *    queue and a per-client token bucket answer overload with explicit
 *    `busy` backpressure frames (retry hints included) rather than
 *    disconnects, and idle connections are reaped on a read timeout;
 *  - routes admitted requests into the existing sea::ExecutionService.
 *    Within each drain cycle requests are ordered by their
 *    client-assigned sequence number before submission, so the
 *    service sees a batch that is a pure function of the cycle's
 *    *contents*, never of network arrival interleaving -- the PR 4
 *    byte-identical-reports guarantee carries through end to end
 *    (DESIGN.md section 11.4);
 *  - drains gracefully on stop: stops accepting, runs the pending
 *    cycle, delivers every report, then closes.
 *
 * The reactor thread is the only thread that touches the service and
 * its machine; handshake quotes run on a separate identity machine so
 * session churn never advances the service timeline.
 */

#ifndef MINTCB_NET_GATEWAY_HH
#define MINTCB_NET_GATEWAY_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.hh"
#include "net/handshake.hh"
#include "net/ratelimit.hh"
#include "net/registry.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "obs/span.hh"
#include "sea/service.hh"

namespace mintcb::store
{
class MigrationAuthority; // defined in store/migrate.hh
}

namespace mintcb::net
{

/** Host-time millisecond clock; injectable so tests drive rate-limit
 *  refill and idle reaping deterministically. */
using HostClock = std::function<std::uint64_t()>;

/** Monotonic milliseconds from std::chrono::steady_clock. */
std::uint64_t steadyMillis();

/** Gateway tuning. */
struct GatewayConfig
{
    /** Loopback port to listen on; 0 = ephemeral (read Gateway::port()
     *  back after start). */
    std::uint16_t port = 0;

    /** Gateway platform label sent in authOk. */
    std::string subject = "mintcb-gate";

    /** Seed for the gateway's attested-identity machine. */
    std::uint64_t identitySeed = 1;

    /** Bounded in-flight queue: pending requests beyond this answer
     *  with busy/queueFull. 0 = unlimited. */
    std::size_t maxInflight = 1024;

    /** Per-client token bucket (busy/rateLimited when empty);
     *  rateBurst = 0 disables rate limiting. */
    std::uint32_t rateBurst = 0;
    double ratePerSecond = 0.0;

    /** Close connections with no complete frame for this long
     *  (host ms); 0 disables idle reaping. */
    std::uint64_t idleTimeoutMillis = 30000;

    /** Drain the service once this many requests are pending. */
    std::size_t drainBatch = 1;

    /** Also drain whenever the reactor goes idle with work pending.
     *  Disable (with drainBatch = N) to force whole-batch cycles --
     *  what the byte-identity tests and bench do. */
    bool drainOnIdle = true;

    /** Host clock used for rate limiting and idle reaping. */
    HostClock clock = steadyMillis;

    /** Optional sim-time tracer: drain cycles and handshake verdicts
     *  land on obs::track::gateway. */
    obs::SpanTracer *tracer = nullptr;

    /** @name Attested state migration (the MIGRATE verbs). @{ */
    /** Authority serving outbound migrations of the gateway-side
     *  sealed store. Null refuses every migrateBegin. Reactor-thread
     *  use only (the reactor is the gateway's single thread). */
    store::MigrationAuthority *migration = nullptr;
    /** Store name clients must pass in migrateBegin. */
    std::string migrationStore = "default";
    /** @} */

    /** @name Session tickets (DESIGN.md section 11.2). @{ */
    /** How long, in `clock` ms, a ticket admits resumes after the full
     *  handshake that issued it. 0 issues no tickets. */
    std::uint64_t ticketLifetimeMillis = 10 * 60 * 1000;
    /** Most tickets held at once: issuing one more evicts the oldest.
     *  0 issues no tickets. */
    std::size_t ticketTableCap = 1024;
    /** @} */
};

/** Cumulative gateway observability; fields() names each counter's
 *  net_* metric family (obs::bridgeCounters). All counters are
 *  reactor-thread-owned. */
struct GatewayStats
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsClosed = 0;
    std::uint64_t handshakesCompleted = 0;
    std::uint64_t handshakesRefused = 0; //!< quote failed verifyFresh
    std::uint64_t protocolErrors = 0;    //!< bad frames / bad state
    std::uint64_t idleDisconnects = 0;

    std::uint64_t framesRx = 0;
    std::uint64_t framesTx = 0;
    std::uint64_t bytesRx = 0;
    std::uint64_t bytesTx = 0;

    std::uint64_t requestsAdmitted = 0;
    std::uint64_t busyQueueFull = 0;
    std::uint64_t busyRateLimited = 0;
    std::uint64_t duplicateSequence = 0;
    std::uint64_t unknownPal = 0;
    std::uint64_t backendRejected = 0; //!< failed backend admission

    std::uint64_t drains = 0;
    std::uint64_t reportsDelivered = 0;
    std::uint64_t reportsDropped = 0; //!< owner disconnected mid-drain
    /** Reports whose frame would exceed maxFramePayload, answered with
     *  a resourceExhausted report instead (counted in delivered). */
    std::uint64_t reportsOversized = 0;
    std::uint64_t maxPendingDepth = 0; //!< high-water mark (gauge)

    std::uint64_t migrationsServed = 0;  //!< bundles handed out
    std::uint64_t migrationsRefused = 0; //!< bad nonce/quote/name/size

    std::uint64_t ticketsIssued = 0;
    std::uint64_t ticketsResumed = 0; //!< sessions admitted by a resume
    /** Resumes refused: unknown, expired or stale-epoch ticket, or a
     *  proof that does not verify. Never counted as handshakesRefused. */
    std::uint64_t ticketsRefused = 0;
    std::uint64_t ticketsEvicted = 0; //!< dropped by ticketTableCap

    static std::span<const CounterField<GatewayStats>> fields();

    /** One-line `gateway: label=value ...` rendering. */
    std::string str() const;
};

/**
 * The gateway server. Bring your own machine + service (the test
 * builds an identically seeded pair to prove byte-identity) and a
 * registry of the PALs remote clients may invoke:
 *
 *     Gateway gw(machine, service, registry, config);
 *     gw.trustClientPal(AttestedIdentity::clientPal());
 *     gw.start();                 // spawns the reactor thread
 *     ... clients connect to gw.port() ...
 *     gw.stop();                  // graceful drain-then-shutdown
 *
 * A daemon (tools/mintcb-gate.cc) calls run() on its main thread
 * instead and wires SIGTERM to requestStop().
 */
class Gateway
{
  public:
    Gateway(machine::Machine &machine, sea::ExecutionService &service,
            const PalRegistry &registry, GatewayConfig config = {});
    ~Gateway();

    Gateway(const Gateway &) = delete;
    Gateway &operator=(const Gateway &) = delete;

    /** Whitelist a client identity PAL for the handshake verifier. */
    void trustClientPal(const sea::Pal &pal);

    /** Bind the listener (done separately so port() is available
     *  before the reactor runs). Idempotent. */
    Status bind();

    /** The bound port (after bind()/start()). */
    std::uint16_t port() const { return port_; }

    /** Run the reactor on the calling thread until requestStop(). */
    Status run();

    /** bind() + run() on a background thread. */
    Status start();

    /** Signal-safe: ask the reactor to drain and exit. */
    void requestStop() { stopRequested_.store(true); }

    /** requestStop() + join the background thread (no-op without
     *  start()). */
    void stop();

    const GatewayStats &stats() const { return stats_; }

    /** Pending (admitted, not yet drained) request count. */
    std::size_t pendingDepth() const;

    /** Reactor poll granularity (host ms); bounds stop latency. Also
     *  the retry hint a busy/queueFull frame carries. */
    static constexpr int pollMillis = 20;

  private:
    struct Conn;
    struct PendingRequest;
    struct Ticket;

    void reactorLoop();
    void acceptPending(std::uint64_t now_ms);
    void serviceConn(Conn &conn, std::uint64_t now_ms);
    bool handleFrame(Conn &conn, const Frame &frame);
    bool handleHello(Conn &conn, const Frame &frame);
    bool handleAuth(Conn &conn, const Frame &frame);
    bool handleResume(Conn &conn, const Frame &frame);
    /** Record a ticket for the client @p verdict accepted, whose
     *  attestation carried @p client_aik, and send it to @p conn. */
    void issueTicket(Conn &conn, const sea::VerifiedLaunch &verdict,
                     const Bytes &client_aik);
    bool handleSubmit(Conn &conn, const Frame &frame);
    bool handleMigrateBegin(Conn &conn, const Frame &frame);
    bool handleMigrate(Conn &conn, const Frame &frame);
    void drainCycle();
    /** Open a frame of @p type directly inside conn.tx, encodeInto()
     *  @p payload there, patch the length, and flush opportunistically.
     *  The reactor's only send primitive: no temporary frame vector
     *  exists. Returns false, with conn.tx rewound to where it was,
     *  when the payload exceeds maxFramePayload -- a frame the peer
     *  must refuse never leaves the gateway. */
    template <typename Payload>
    bool sendFrame(Conn &conn, FrameType type, const Payload &payload);
    void sendError(Conn &conn, const Error &error);
    void refuse(Conn &conn, Errc code, const std::string &message);
    void flushTx(Conn &conn);
    void closeConn(Conn &conn);
    void reapIdle(std::uint64_t now_ms);
    bool anyTxPending() const;
    Conn *connBySession(std::uint64_t session);

    machine::Machine &machine_;
    sea::ExecutionService &service_;
    const PalRegistry &registry_;
    GatewayConfig config_;

    AttestedIdentity identity_;
    sea::Verifier clientVerifier_;
    /** Issue order, which is also expiry order (one lifetime). */
    std::vector<Ticket> tickets_;

    TcpListener listener_;
    std::uint16_t port_ = 0;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::vector<PendingRequest> pending_;
    bool flushRequested_ = false;
    std::uint64_t nextSession_ = 1;

    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> running_{false};
    std::unique_ptr<std::thread> thread_;

    GatewayStats stats_;
};

} // namespace mintcb::net

#endif // MINTCB_NET_GATEWAY_HH
