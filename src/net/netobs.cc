/**
 * @file
 * Gateway metrics bridge implementation.
 */

#include "net/netobs.hh"

namespace mintcb::net
{

void
bridgeGatewayStats(obs::MetricsRegistry &registry,
                   const GatewayStats &stats, obs::Labels labels)
{
    const GatewayStats *s = &stats;
    auto counter = [&](const char *name, const char *help,
                       const std::uint64_t GatewayStats::*field) {
        registry.addCallback(
            name, help, labels,
            [s, field] { return static_cast<double>(s->*field); },
            "counter");
    };

    counter("net_connections_accepted_total",
            "TCP connections the gateway accepted",
            &GatewayStats::connectionsAccepted);
    counter("net_connections_closed_total",
            "Gateway connections closed (any reason)",
            &GatewayStats::connectionsClosed);
    counter("net_handshakes_completed_total",
            "Attested sessions admitted after verifyFresh",
            &GatewayStats::handshakesCompleted);
    counter("net_handshakes_refused_total",
            "Handshakes refused by the attestation verifier",
            &GatewayStats::handshakesRefused);
    counter("net_protocol_errors_total",
            "Malformed frames or out-of-state messages",
            &GatewayStats::protocolErrors);
    counter("net_idle_disconnects_total",
            "Connections reaped by the idle timeout",
            &GatewayStats::idleDisconnects);
    counter("net_frames_rx_total", "Frames received from clients",
            &GatewayStats::framesRx);
    counter("net_frames_tx_total", "Frames sent to clients",
            &GatewayStats::framesTx);
    counter("net_bytes_rx_total", "Payload bytes received",
            &GatewayStats::bytesRx);
    counter("net_bytes_tx_total", "Payload bytes sent",
            &GatewayStats::bytesTx);
    counter("net_requests_admitted_total",
            "Requests admitted into the execution service",
            &GatewayStats::requestsAdmitted);
    counter("net_busy_queue_full_total",
            "Busy responses: bounded in-flight queue at capacity",
            &GatewayStats::busyQueueFull);
    counter("net_busy_rate_limited_total",
            "Busy responses: per-client token bucket empty",
            &GatewayStats::busyRateLimited);
    counter("net_duplicate_sequence_total",
            "Submits refused for a duplicate in-cycle sequence",
            &GatewayStats::duplicateSequence);
    counter("net_unknown_pal_total",
            "Submits naming a PAL the registry does not hold",
            &GatewayStats::unknownPal);
    counter("net_backend_rejected_total",
            "Submits refused at backend admission (unknown backend or "
            "capability mismatch)",
            &GatewayStats::backendRejected);
    counter("net_drains_total", "Service drain cycles run",
            &GatewayStats::drains);
    counter("net_reports_delivered_total",
            "Execution reports delivered to their clients",
            &GatewayStats::reportsDelivered);
    counter("net_reports_dropped_total",
            "Reports dropped because the owner disconnected",
            &GatewayStats::reportsDropped);
    counter("net_reports_oversized_total",
            "Reports over the frame payload limit, answered with a "
            "resourceExhausted report",
            &GatewayStats::reportsOversized);
    counter("net_migrations_served_total",
            "Attested migration bundles handed out",
            &GatewayStats::migrationsServed);
    counter("net_migrations_refused_total",
            "Migrations refused (bad nonce, quote, or store name)",
            &GatewayStats::migrationsRefused);

    registry.addCallback(
        "net_max_pending_depth",
        "High-water mark of the gateway's pending-request queue",
        labels,
        [s] { return static_cast<double>(s->maxPendingDepth); },
        "gauge");
}

} // namespace mintcb::net
