/**
 * @file
 * Gateway reactor implementation.
 */

#include "net/gateway.hh"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <utility>

#include "crypto/hmac.hh"
#include "store/migrate.hh"

namespace mintcb::net
{

std::uint64_t
steadyMillis()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Per-connection reactor state. */
struct Gateway::Conn
{
    enum class State
    {
        expectHello, //!< nothing received yet
        expectAuth,  //!< challenge sent, waiting on the client quote
        attested,    //!< session admitted; submits accepted
        closed,
    };

    TcpStream stream;
    /** Receive buffer. Frames are consumed by advancing rxOff (no
     *  per-frame memmove); the prefix is compacted once per reactor
     *  pass. */
    Bytes rx;
    std::size_t rxOff = 0;
    /** Send buffer. Frames are encoded in place at the tail; sent
     *  bytes are consumed by advancing txOff, and the buffer resets
     *  (keeping its capacity) once fully flushed. */
    Bytes tx;
    std::size_t txOff = 0;
    /** Reusable decode target: takeFrameInto re-fills the payload in
     *  place, so steady-state frame handling does not allocate. */
    Frame scratch;
    State state = State::expectHello;
    std::string clientName;
    Bytes gatewayNonce; //!< challenge nonce this client must quote
    Bytes migrationNonce; //!< outstanding MIGRATE challenge (if any)
    std::uint64_t session = 0;
    TokenBucket bucket;
    std::uint64_t lastActivityMs = 0;
    bool closeAfterFlush = false;

    bool txPending() const { return txOff < tx.size(); }
};

/** One issued session ticket (DESIGN.md section 11.2). */
struct Gateway::Ticket
{
    Bytes id;              //!< ticketIdBytes, OS entropy
    Bytes secret;          //!< ticketSecretBytes, OS entropy
    std::string clientPal; //!< whitelist label verifyFresh accepted
    Bytes clientAik;       //!< aikFingerprint of the client's AIK
    Bytes issuerAik;       //!< aikFingerprint of this gateway's AIK
    std::uint64_t epoch = 0;
    std::uint64_t expiresMs = 0; //!< on config.clock
};

/** One admitted request waiting for the next drain cycle. */
struct Gateway::PendingRequest
{
    std::uint64_t sequence = 0;
    std::uint64_t session = 0;
    sea::PalRequest request;
};

namespace
{

using GatewayField = CounterField<GatewayStats>;

constexpr GatewayField gatewayFields[] = {
    {"net_connections_accepted_total",
     "TCP connections the gateway accepted", "conns_accepted",
     &GatewayStats::connectionsAccepted},
    {"net_connections_closed_total",
     "Gateway connections closed (any reason)", "conns_closed",
     &GatewayStats::connectionsClosed},
    {"net_handshakes_completed_total",
     "Attested sessions admitted after verifyFresh", "handshakes_ok",
     &GatewayStats::handshakesCompleted},
    {"net_handshakes_refused_total",
     "Handshakes refused by the attestation verifier",
     "handshakes_refused", &GatewayStats::handshakesRefused},
    {"net_protocol_errors_total",
     "Malformed frames or out-of-state messages", "protocol_errors",
     &GatewayStats::protocolErrors},
    {"net_idle_disconnects_total",
     "Connections reaped by the idle timeout", "idle_disconnects",
     &GatewayStats::idleDisconnects},
    {"net_frames_rx_total", "Frames received from clients", "frames_rx",
     &GatewayStats::framesRx},
    {"net_frames_tx_total", "Frames sent to clients", "frames_tx",
     &GatewayStats::framesTx},
    {"net_bytes_rx_total", "Payload bytes received", "bytes_rx",
     &GatewayStats::bytesRx},
    {"net_bytes_tx_total", "Payload bytes sent", "bytes_tx",
     &GatewayStats::bytesTx},
    {"net_requests_admitted_total",
     "Requests admitted into the execution service", "admitted",
     &GatewayStats::requestsAdmitted},
    {"net_busy_queue_full_total",
     "Busy responses: bounded in-flight queue at capacity",
     "busy_queue_full", &GatewayStats::busyQueueFull},
    {"net_busy_rate_limited_total",
     "Busy responses: per-client token bucket empty",
     "busy_rate_limited", &GatewayStats::busyRateLimited},
    {"net_duplicate_sequence_total",
     "Submits refused for a duplicate in-cycle sequence", "dup_sequence",
     &GatewayStats::duplicateSequence},
    {"net_unknown_pal_total",
     "Submits naming a PAL the registry does not hold", "unknown_pal",
     &GatewayStats::unknownPal},
    {"net_backend_rejected_total",
     "Submits refused at backend admission (unknown backend or "
     "capability mismatch)",
     "backend_rejected", &GatewayStats::backendRejected},
    {"net_drains_total", "Service drain cycles run", "drains",
     &GatewayStats::drains},
    {"net_reports_delivered_total",
     "Execution reports delivered to their clients", "reports_delivered",
     &GatewayStats::reportsDelivered},
    {"net_reports_dropped_total",
     "Reports dropped because the owner disconnected", "reports_dropped",
     &GatewayStats::reportsDropped},
    {"net_reports_oversized_total",
     "Reports over the frame payload limit, answered with a "
     "resourceExhausted report",
     "reports_oversized", &GatewayStats::reportsOversized},
    {"net_max_pending_depth",
     "High-water mark of the gateway's pending-request queue",
     "max_pending", &GatewayStats::maxPendingDepth, CounterKind::gauge},
    {"net_migrations_served_total",
     "Attested migration bundles handed out", "migrations_served",
     &GatewayStats::migrationsServed},
    {"net_migrations_refused_total",
     "Migrations refused (bad nonce, quote, or store name)",
     "migrations_refused", &GatewayStats::migrationsRefused},
    {"net_tickets_issued_total",
     "Session tickets issued after a full mutual attestation",
     "tickets_issued", &GatewayStats::ticketsIssued},
    {"net_tickets_resumed_total",
     "Sessions admitted by a ticket resume, with no quote",
     "tickets_resumed", &GatewayStats::ticketsResumed},
    {"net_tickets_refused_total",
     "Resumes refused (unknown, expired or stale-epoch ticket, or a bad "
     "proof)",
     "tickets_refused", &GatewayStats::ticketsRefused},
    {"net_tickets_evicted_total",
     "Session tickets evicted by the ticket table cap", "tickets_evicted",
     &GatewayStats::ticketsEvicted},
};
static_assert(sizeof(GatewayStats) ==
                  std::size(gatewayFields) * sizeof(std::uint64_t),
              "every GatewayStats field needs a row in gatewayFields");

} // namespace

std::span<const GatewayField>
GatewayStats::fields()
{
    return gatewayFields;
}

std::string
GatewayStats::str() const
{
    return "gateway: " + renderCounters(*this) + "\n";
}

Gateway::Gateway(machine::Machine &machine, sea::ExecutionService &service,
                 const PalRegistry &registry, GatewayConfig config)
    : machine_(machine), service_(service), registry_(registry),
      config_(std::move(config)),
      identity_(config_.subject, AttestedIdentity::gatewayPal(),
                config_.identitySeed)
{
}

Gateway::~Gateway() { stop(); }

std::size_t
Gateway::pendingDepth() const
{
    return pending_.size();
}

void
Gateway::trustClientPal(const sea::Pal &pal)
{
    clientVerifier_.trustPal(pal);
}

Status
Gateway::bind()
{
    if (listener_.valid())
        return okStatus();
    if (!identity_.ok())
        return identity_.launchStatus();
    auto listener = TcpListener::bindLoopback(config_.port);
    if (!listener)
        return listener.error();
    listener_ = listener.take();
    port_ = listener_.port();
    return okStatus();
}

Status
Gateway::run()
{
    if (auto s = bind(); !s.ok())
        return s;
    reactorLoop();
    return okStatus();
}

Status
Gateway::start()
{
    if (auto s = bind(); !s.ok())
        return s;
    thread_ = std::make_unique<std::thread>([this] { reactorLoop(); });
    return okStatus();
}

void
Gateway::stop()
{
    requestStop();
    if (thread_ && thread_->joinable())
        thread_->join();
    thread_.reset();
}

Gateway::Conn *
Gateway::connBySession(std::uint64_t session)
{
    for (auto &conn : conns_) {
        if (conn->session == session &&
            conn->state == Conn::State::attested) {
            return conn.get();
        }
    }
    return nullptr;
}

void
Gateway::reactorLoop()
{
    running_.store(true);
    bool accepting = true;
    while (true) {
        const bool stopping = stopRequested_.load();
        if (stopping)
            accepting = false; // graceful: finish work, take no more

        std::vector<pollfd> fds;
        fds.reserve(conns_.size() + 1);
        const bool pollListener = accepting && listener_.valid();
        if (pollListener)
            fds.push_back({listener_.fd(), POLLIN, 0});
        const std::size_t connBase = fds.size();
        for (const auto &conn : conns_) {
            short events = POLLIN;
            if (conn->txPending())
                events = static_cast<short>(events | POLLOUT);
            fds.push_back({conn->stream.fd(), events, 0});
        }
        // fds covers exactly the connections present right now;
        // acceptPending below may grow conns_, so remember how many
        // were actually polled and walk only that prefix (a fresh
        // connection gets its first poll next pass).
        const std::size_t polled = conns_.size();
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               pollMillis);

        const std::uint64_t now = config_.clock();
        const std::uint64_t framesBefore = stats_.framesRx;

        if (pollListener && (fds[0].revents & POLLIN) != 0)
            acceptPending(now);

        for (std::size_t i = 0; i < polled; ++i) {
            Conn &conn = *conns_[i];
            const short revents = fds[connBase + i].revents;
            if (conn.state == Conn::State::closed)
                continue;
            if ((revents & POLLOUT) != 0)
                flushTx(conn);
            if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0)
                serviceConn(conn, now);
            if (conn.state != Conn::State::closed &&
                conn.closeAfterFlush && !conn.txPending()) {
                closeConn(conn);
            }
        }

        reapIdle(now);
        conns_.erase(
            std::remove_if(conns_.begin(), conns_.end(),
                           [](const std::unique_ptr<Conn> &c) {
                               return c->state == Conn::State::closed;
                           }),
            conns_.end());

        const bool readAny = stats_.framesRx != framesBefore;
        if (!pending_.empty() &&
            (pending_.size() >= config_.drainBatch || flushRequested_ ||
             (config_.drainOnIdle && !readAny) || stopping)) {
            flushRequested_ = false;
            drainCycle();
        }

        if (stopping && pending_.empty() && !anyTxPending())
            break;
    }

    // Last-chance flush so clients blocked on their final report see it
    // before the FIN.
    for (auto &conn : conns_) {
        if (conn->state == Conn::State::closed)
            continue;
        flushTx(*conn);
        closeConn(*conn);
    }
    conns_.clear();
    listener_.close();
    running_.store(false);
}

void
Gateway::acceptPending(std::uint64_t now_ms)
{
    auto stream = listener_.accept();
    if (!stream)
        return; // transient; poll again
    if (auto s = stream->setNonBlocking(true); !s.ok())
        return;
    auto conn = std::make_unique<Conn>();
    conn->stream = stream.take();
    conn->bucket =
        TokenBucket(config_.rateBurst, config_.ratePerSecond, now_ms);
    conn->lastActivityMs = now_ms;
    conns_.push_back(std::move(conn));
    ++stats_.connectionsAccepted;
}

void
Gateway::serviceConn(Conn &conn, std::uint64_t now_ms)
{
    for (;;) {
        auto n = conn.stream.recvSome(conn.rx);
        if (!n) {
            if (n.error().code == Errc::resourceExhausted)
                break; // socket drained for now
            closeConn(conn);
            return;
        }
        if (*n == 0) { // orderly EOF
            closeConn(conn);
            return;
        }
        stats_.bytesRx += *n;
        conn.lastActivityMs = now_ms;
    }

    while (conn.state != Conn::State::closed && !conn.closeAfterFlush) {
        auto took = takeFrameInto(conn.rx, conn.rxOff, conn.scratch);
        if (!took) {
            // Malformed framing: impossible to resynchronize a byte
            // stream, so refuse and hang up.
            ++stats_.protocolErrors;
            refuse(conn, took.error().code, took.error().message);
            break;
        }
        if (!*took)
            break; // need more bytes
        ++stats_.framesRx;
        if (!handleFrame(conn, conn.scratch))
            break;
    }

    // Compact the consumed prefix once per pass (one memmove for the
    // whole batch of frames, zero when the buffer drained completely).
    if (conn.rxOff == conn.rx.size()) {
        conn.rx.clear();
        conn.rxOff = 0;
    } else if (conn.rxOff > 0) {
        conn.rx.erase(conn.rx.begin(),
                      conn.rx.begin() +
                          static_cast<std::ptrdiff_t>(conn.rxOff));
        conn.rxOff = 0;
    }

    if (conn.state != Conn::State::closed && conn.closeAfterFlush) {
        flushTx(conn);
        if (!conn.txPending())
            closeConn(conn);
    }
}

bool
Gateway::handleFrame(Conn &conn, const Frame &frame)
{
    switch (frame.type) {
    case FrameType::hello:
        return handleHello(conn, frame);
    case FrameType::auth:
        return handleAuth(conn, frame);
    case FrameType::resume:
        return handleResume(conn, frame);
    case FrameType::submit:
        return handleSubmit(conn, frame);
    case FrameType::migrateBegin:
        return handleMigrateBegin(conn, frame);
    case FrameType::migrate:
        return handleMigrate(conn, frame);
    case FrameType::flush:
        flushRequested_ = true;
        return true;
    case FrameType::bye:
        conn.closeAfterFlush = true;
        return false;
    default:
        ++stats_.protocolErrors;
        refuse(conn, Errc::failedPrecondition,
               std::string("unexpected frame from client: ") +
                   frameTypeName(frame.type));
        return false;
    }
}

bool
Gateway::handleHello(Conn &conn, const Frame &frame)
{
    if (conn.state != Conn::State::expectHello) {
        ++stats_.protocolErrors;
        refuse(conn, Errc::failedPrecondition, "hello after handshake");
        return false;
    }
    auto hello = decodeHello(frame.payload);
    if (!hello) {
        ++stats_.protocolErrors;
        refuse(conn, hello.error().code, hello.error().message);
        return false;
    }
    if (hello->version != wireVersion) {
        ++stats_.protocolErrors;
        refuse(conn, Errc::failedPrecondition,
               "protocol version mismatch: gateway speaks " +
                   std::to_string(wireVersion) + ", client sent " +
                   std::to_string(hello->version));
        return false;
    }
    conn.clientName = hello->clientName;
    conn.gatewayNonce = identity_.freshNonce();
    auto attestation = identity_.attest(hello->nonce);
    if (!attestation) {
        refuse(conn, attestation.error().code,
               attestation.error().message);
        return false;
    }
    sendFrame(conn, FrameType::challenge,
              ChallengePayload{attestation->encode(), conn.gatewayNonce});
    conn.state = Conn::State::expectAuth;
    return true;
}

bool
Gateway::handleAuth(Conn &conn, const Frame &frame)
{
    if (conn.state != Conn::State::expectAuth) {
        ++stats_.protocolErrors;
        refuse(conn, Errc::failedPrecondition, "auth out of sequence");
        return false;
    }
    auto auth = decodeAuth(frame.payload);
    if (!auth) {
        ++stats_.protocolErrors;
        refuse(conn, auth.error().code, auth.error().message);
        return false;
    }
    auto attestation = sea::Attestation::decode(auth->attestation);
    if (!attestation) {
        ++stats_.protocolErrors;
        refuse(conn, attestation.error().code,
               attestation.error().message);
        return false;
    }
    // The gate: certificate chain, quote signature, exact-nonce
    // freshness, replay memory, and the PAL whitelist all pass before a
    // session exists -- and without a session, no submit ever reaches
    // the execution service.
    auto verdict =
        clientVerifier_.verifyFresh(*attestation, conn.gatewayNonce);
    if (!verdict) {
        ++stats_.handshakesRefused;
        if (config_.tracer) {
            config_.tracer->instant(obs::track::gateway,
                                    "gw:handshake-refused", "net",
                                    machine_.now());
        }
        refuse(conn, verdict.error().code, verdict.error().message);
        return false;
    }
    conn.session = nextSession_++;
    conn.state = Conn::State::attested;
    ++stats_.handshakesCompleted;
    if (config_.tracer) {
        const std::uint64_t id = config_.tracer->instant(
            obs::track::gateway, "gw:session", "net", machine_.now(),
            conn.session);
        config_.tracer->annotate(id, "client", verdict->palName);
    }
    if (config_.ticketLifetimeMillis > 0 && config_.ticketTableCap > 0)
        issueTicket(conn, *verdict,
                    aikFingerprint(attestation->aikCert.aikPublic));
    sendFrame(conn, FrameType::authOk,
              AuthOkPayload{conn.session, config_.subject});
    return true;
}

void
Gateway::issueTicket(Conn &conn, const sea::VerifiedLaunch &verdict,
                     const Bytes &client_aik)
{
    const std::uint64_t now = config_.clock();
    // Tickets expire in issue order, so expired ones sit at the front.
    auto live = std::find_if(tickets_.begin(), tickets_.end(),
                             [now](const Ticket &t) {
                                 return t.expiresMs > now;
                             });
    tickets_.erase(tickets_.begin(), live);
    if (tickets_.size() >= config_.ticketTableCap) {
        tickets_.erase(tickets_.begin()); // the oldest
        ++stats_.ticketsEvicted;
    }
    Ticket ticket;
    ticket.id = osRandomBytes(ticketIdBytes);
    ticket.secret = osRandomBytes(ticketSecretBytes);
    ticket.clientPal = verdict.palName;
    ticket.clientAik = client_aik;
    ticket.issuerAik = identity_.aikFingerprint();
    ticket.expiresMs = now + config_.ticketLifetimeMillis;
    sendFrame(conn, FrameType::ticket,
              TicketPayload{ticket.id, ticket.secret, ticket.epoch});
    tickets_.push_back(std::move(ticket));
    ++stats_.ticketsIssued;
}

bool
Gateway::handleResume(Conn &conn, const Frame &frame)
{
    if (conn.state != Conn::State::expectHello) {
        ++stats_.protocolErrors;
        refuse(conn, Errc::failedPrecondition, "resume after handshake");
        return false;
    }
    auto resume = decodeResume(frame.payload);
    if (!resume) {
        ++stats_.protocolErrors;
        refuse(conn, resume.error().code, resume.error().message);
        return false;
    }
    // Every refusal is typed and counted, and closes the connection:
    // the client drops its ticket and attests in full on a new one.
    const auto refuseResume = [&](Errc code, const std::string &why) {
        ++stats_.ticketsRefused;
        refuse(conn, code, why);
        return false;
    };
    auto it = std::find_if(tickets_.begin(), tickets_.end(),
                           [&](const Ticket &t) { return t.id == resume->id; });
    if (it == tickets_.end() || it->issuerAik != identity_.aikFingerprint())
        return refuseResume(Errc::notFound, "unknown session ticket");
    if (config_.clock() >= it->expiresMs) {
        tickets_.erase(it);
        return refuseResume(Errc::failedPrecondition,
                            "session ticket expired");
    }
    if (resume->epoch != it->epoch) {
        return refuseResume(Errc::permissionDenied,
                            "stale ticket epoch " +
                                std::to_string(resume->epoch) +
                                " (current " + std::to_string(it->epoch) +
                                ")");
    }
    if (!crypto::constantTimeEqual(
            resume->proof,
            resumeProof(it->secret, it->id, it->epoch, resume->nonce))) {
        return refuseResume(Errc::integrityFailure,
                            "session ticket proof does not verify");
    }
    // Admitted. Advancing the epoch makes this frame, and any recording
    // of it, stale for good.
    const Bytes answer = resumedProof(it->secret, it->epoch, resume->nonce);
    ++it->epoch;
    conn.session = nextSession_++;
    conn.state = Conn::State::attested;
    ++stats_.ticketsResumed;
    if (config_.tracer) {
        const std::uint64_t id = config_.tracer->instant(
            obs::track::gateway, "gw:resume", "net", machine_.now(),
            conn.session);
        config_.tracer->annotate(id, "client", it->clientPal);
    }
    sendFrame(conn, FrameType::resumed, ResumedPayload{conn.session, answer});
    return true;
}

bool
Gateway::handleSubmit(Conn &conn, const Frame &frame)
{
    if (conn.state != Conn::State::attested) {
        ++stats_.protocolErrors;
        refuse(conn, Errc::permissionDenied,
               "submit before an attested session was established");
        return false;
    }
    auto wire = decodeSubmit(frame.payload);
    if (!wire) {
        ++stats_.protocolErrors;
        refuse(conn, wire.error().code, wire.error().message);
        return false;
    }
    auto request = registry_.build(*wire);
    if (!request) {
        ++stats_.unknownPal;
        refuse(conn, request.error().code, request.error().message);
        return false;
    }
    // Backend admission fails closed at the gateway edge: an unknown
    // backend name or a capability the backend cannot honor is refused
    // here, before the request consumes queue or service resources.
    if (auto admit = service_.admissible(*request); !admit.ok()) {
        ++stats_.backendRejected;
        refuse(conn, admit.error().code, admit.error().message);
        return false;
    }
    for (const PendingRequest &p : pending_) {
        if (p.sequence == wire->sequence) {
            // A duplicate key would make the in-cycle order ambiguous,
            // which is exactly what the sequence exists to prevent.
            ++stats_.duplicateSequence;
            refuse(conn, Errc::invalidArgument,
                   "sequence " + std::to_string(wire->sequence) +
                       " already pending in this drain cycle");
            return false;
        }
    }
    // Backpressure answers keep the connection open: an overloaded
    // gateway says "later", it does not hang up. Admission uses a
    // fresh clock sample, not the reactor pass's: a client that
    // honored the retry hint must find its token accrued even when
    // its retry lands in the same pass as younger traffic.
    const std::uint64_t admit_ms = config_.clock();
    if (!conn.bucket.tryAcquire(admit_ms)) {
        ++stats_.busyRateLimited;
        sendFrame(conn, FrameType::busy,
                  BusyPayload{wire->sequence, BusyReason::rateLimited,
                              conn.bucket.millisUntilToken(admit_ms)});
        return true;
    }
    if (config_.maxInflight > 0 &&
        pending_.size() >= config_.maxInflight) {
        ++stats_.busyQueueFull;
        sendFrame(conn, FrameType::busy,
                  BusyPayload{wire->sequence, BusyReason::queueFull,
                              static_cast<std::uint32_t>(pollMillis)});
        return true;
    }
    pending_.push_back(
        PendingRequest{wire->sequence, conn.session, request.take()});
    ++stats_.requestsAdmitted;
    stats_.maxPendingDepth =
        std::max<std::uint64_t>(stats_.maxPendingDepth, pending_.size());
    return true;
}

bool
Gateway::handleMigrateBegin(Conn &conn, const Frame &frame)
{
    if (conn.state != Conn::State::attested) {
        ++stats_.protocolErrors;
        refuse(conn, Errc::permissionDenied,
               "migrateBegin before an attested session was "
               "established");
        return false;
    }
    auto begin = decodeMigrateBegin(frame.payload);
    if (!begin) {
        ++stats_.protocolErrors;
        refuse(conn, begin.error().code, begin.error().message);
        return false;
    }
    if (config_.migration == nullptr ||
        begin->storeName != config_.migrationStore) {
        ++stats_.migrationsRefused;
        refuse(conn, Errc::notFound,
               "no migratable store named \"" + begin->storeName +
                   "\"");
        return false;
    }
    conn.migrationNonce = config_.migration->beginChallenge();
    sendFrame(conn, FrameType::migrateChallenge,
              MigrateChallengePayload{conn.migrationNonce});
    return true;
}

bool
Gateway::handleMigrate(Conn &conn, const Frame &frame)
{
    if (conn.state != Conn::State::attested) {
        ++stats_.protocolErrors;
        refuse(conn, Errc::permissionDenied,
               "migrate before an attested session was established");
        return false;
    }
    auto migrate = decodeMigrate(frame.payload);
    if (!migrate) {
        ++stats_.protocolErrors;
        refuse(conn, migrate.error().code, migrate.error().message);
        return false;
    }
    // The nonce must be the one this connection was challenged with:
    // the authority enforces single-use across the gateway, and this
    // check additionally pins it to the conversation that asked.
    if (config_.migration == nullptr ||
        migrate->storeName != config_.migrationStore ||
        conn.migrationNonce.empty() ||
        migrate->nonce != conn.migrationNonce) {
        ++stats_.migrationsRefused;
        refuse(conn, Errc::permissionDenied,
               "migrate does not answer this connection's challenge");
        return false;
    }
    conn.migrationNonce.clear();
    // The bundle must fit one migrated frame. The authority checks that
    // before it invalidates the source, so an oversized store is a
    // typed refusal that leaves the only replica live.
    const std::size_t maxBundle =
        maxFramePayload - encode(MigratedPayload{}).size();
    auto bundle = config_.migration->complete(
        migrate->nonce, migrate->targetSrk, migrate->attestation,
        maxBundle);
    if (!bundle) {
        ++stats_.migrationsRefused;
        refuse(conn, bundle.error().code, bundle.error().message);
        return false;
    }
    sendFrame(conn, FrameType::migrated, MigratedPayload{bundle.take()});
    ++stats_.migrationsServed;
    return true;
}

void
Gateway::drainCycle()
{
    if (pending_.empty())
        return;
    obs::SpanTracer *tracer = config_.tracer;
    std::uint64_t span = 0;
    if (tracer) {
        span = tracer->beginSpan(obs::track::gateway, "gw:drain", "net",
                                 machine_.now());
        tracer->annotate(span, "requests",
                         std::to_string(pending_.size()));
    }

    // The determinism hinge (DESIGN.md section 11.4): admission order
    // into the service is the ascending client-assigned sequence, so
    // the batch the service sees is a function of the cycle's contents,
    // never of TCP arrival interleaving.
    std::vector<PendingRequest> cycle;
    cycle.swap(pending_);
    std::sort(cycle.begin(), cycle.end(),
              [](const PendingRequest &a, const PendingRequest &b) {
                  return a.sequence < b.sequence;
              });

    struct Owner
    {
        std::uint64_t session;
        std::uint64_t sequence;
    };
    std::map<std::uint64_t, Owner> owners; // service requestId -> owner
    for (PendingRequest &p : cycle) {
        auto id = service_.submit(std::move(p.request));
        if (!id) {
            if (Conn *conn = connBySession(p.session))
                sendError(*conn, id.error());
            continue;
        }
        owners[*id] = Owner{p.session, p.sequence};
    }

    auto reports = service_.drain();
    ++stats_.drains;
    if (!reports) {
        for (const auto &[id, owner] : owners) {
            (void)id;
            if (Conn *conn = connBySession(owner.session))
                sendError(*conn, reports.error());
        }
        if (tracer)
            tracer->endSpan(span, machine_.now());
        return;
    }

    for (const sea::ExecutionReport &report : *reports) {
        auto it = owners.find(report.requestId);
        if (it == owners.end())
            continue; // not from this cycle
        Conn *conn = connBySession(it->second.session);
        if (conn == nullptr) {
            ++stats_.reportsDropped; // owner hung up mid-cycle
            continue;
        }
        // The service's encoded report moves into the payload; its
        // bytes are copied once, into the connection's tx buffer.
        const std::uint64_t sequence = it->second.sequence;
        if (!sendFrame(*conn, FrameType::report,
                       ReportPayload{sequence, report.encode()})) {
            // The client's takeFrame would refuse this frame and drop
            // the connection. Answer the sequence with a typed failure
            // instead, so the session survives.
            ++stats_.reportsOversized;
            sea::ExecutionReport refused = report;
            refused.status =
                Error(Errc::resourceExhausted,
                      "report exceeds the " +
                          std::to_string(maxFramePayload) +
                          "-byte frame payload limit");
            refused.output.clear();
            refused.quoted = false;
            sendFrame(*conn, FrameType::report,
                      ReportPayload{sequence, refused.encode()});
        }
        ++stats_.reportsDelivered;
    }
    if (tracer)
        tracer->endSpan(span, machine_.now());
}

template <typename Payload>
bool
Gateway::sendFrame(Conn &conn, FrameType type, const Payload &payload)
{
    if (conn.state == Conn::State::closed)
        return true;
    const std::size_t frame_start = beginFrame(type, conn.tx);
    encodeInto(payload, conn.tx);
    if (conn.tx.size() - frame_start - frameHeaderBytes > maxFramePayload) {
        conn.tx.resize(frame_start); // rewind: nothing of it leaves
        return false;
    }
    endFrame(conn.tx, frame_start);
    ++stats_.framesTx;
    stats_.bytesTx += conn.tx.size() - frame_start;
    flushTx(conn); // opportunistic; the rest goes out on POLLOUT
    return true;
}

void
Gateway::sendError(Conn &conn, const Error &error)
{
    sendFrame(conn, FrameType::error,
              ErrorPayload{static_cast<std::uint16_t>(error.code),
                           error.message});
}

void
Gateway::refuse(Conn &conn, Errc code, const std::string &message)
{
    sendError(conn, Error(code, message));
    conn.closeAfterFlush = true;
}

void
Gateway::flushTx(Conn &conn)
{
    while (conn.txPending() && conn.state != Conn::State::closed) {
        auto n = conn.stream.sendSome(conn.tx.data() + conn.txOff,
                                      conn.tx.size() - conn.txOff);
        if (!n) {
            closeConn(conn);
            return;
        }
        if (*n == 0)
            break; // socket buffer full; POLLOUT will resume
        conn.txOff += *n;
    }
    // Fully drained: reset the buffer, keeping its capacity, so the
    // next frame encodes into already-owned storage. Partially
    // drained: leave the bytes in place (consuming via txOff avoids
    // the per-send front-erase memmove the old path paid).
    if (conn.txOff == conn.tx.size()) {
        conn.tx.clear();
        conn.txOff = 0;
    }
}

void
Gateway::closeConn(Conn &conn)
{
    if (conn.state == Conn::State::closed)
        return;
    conn.stream.close();
    conn.state = Conn::State::closed;
    ++stats_.connectionsClosed;
}

void
Gateway::reapIdle(std::uint64_t now_ms)
{
    if (config_.idleTimeoutMillis == 0)
        return;
    for (auto &conn : conns_) {
        if (conn->state == Conn::State::closed)
            continue;
        if (now_ms - conn->lastActivityMs >= config_.idleTimeoutMillis) {
            ++stats_.idleDisconnects;
            closeConn(*conn);
        }
    }
}

bool
Gateway::anyTxPending() const
{
    for (const auto &conn : conns_) {
        if (conn->state != Conn::State::closed && conn->txPending())
            return true;
    }
    return false;
}

} // namespace mintcb::net
