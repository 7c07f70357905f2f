/**
 * @file
 * mintcb-gate: the attested network gateway daemon.
 *
 * Serves PAL execution over loopback TCP: remote clients handshake via
 * mutual remote attestation, then submit work by registered PAL name
 * (net/gateway.hh has the full protocol story). SIGINT/SIGTERM trigger
 * a graceful drain: pending requests finish, reports are delivered,
 * then the listener closes.
 *
 * Modes:
 *
 *   mintcb-gate [options]       serve until SIGTERM; prints the bound
 *                               port on stdout (use --port 0 for an
 *                               ephemeral port).
 *   mintcb-gate --selftest      in-process smoke test: gateway +
 *                               attested client round-trip, plus a
 *                               non-whitelisted client refused; exit 0
 *                               only if all pass.
 *
 * Options: --port N, --workers N, --shards N, --batch N,
 *          --max-inflight N, --rate-burst N, --rate-per-sec X,
 *          --idle-ms N, --backend NAME (default execution backend for
 *          wire requests that do not name one; must be registered),
 *          --metrics (Prometheus dump on exit).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "backend/registry.hh"
#include "common/hex.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "obs/metrics.hh"

namespace
{

using namespace mintcb;

net::Gateway *g_gateway = nullptr;

void
onSignal(int)
{
    if (g_gateway != nullptr)
        g_gateway->requestStop(); // one atomic store; signal-safe
}

/** The stock PAL set a gate instance serves. */
net::PalRegistry
stockRegistry()
{
    net::PalRegistry registry;
    registry.addEcho("echo");
    registry.add(
        "reverse", 4 * 1024,
        [](sea::PalContext &ctx) {
            Bytes out(ctx.input().rbegin(), ctx.input().rend());
            ctx.setOutput(out);
            return okStatus();
        },
        [](rec::PalHooks &, const Bytes &input) -> Result<Bytes> {
            return Bytes(input.rbegin(), input.rend());
        });
    return registry;
}

int
selftest()
{
    machine::Machine machine =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ExecutionService service(machine);
    net::PalRegistry registry = stockRegistry();

    net::GatewayConfig config;
    config.port = 0;
    net::Gateway gateway(machine, service, registry, config);
    gateway.trustClientPal(net::AttestedIdentity::clientPal());
    if (auto s = gateway.start(); !s.ok()) {
        std::fprintf(stderr, "FAIL: gateway start: %s\n",
                     s.error().message.c_str());
        return 1;
    }

    net::ClientConfig clientConfig;
    clientConfig.identitySeed = 7;
    net::GatewayClient client(clientConfig);
    if (auto s = client.connect(gateway.port()); !s.ok()) {
        std::fprintf(stderr, "FAIL: handshake: %s\n",
                     s.error().message.c_str());
        return 1;
    }

    net::WireRequest request;
    request.sequence = 1;
    request.palName = "echo";
    request.input = asciiBytes("gate selftest payload");
    auto report = client.call(request);
    if (!report) {
        std::fprintf(stderr, "FAIL: call: %s\n",
                     report.error().message.c_str());
        return 1;
    }
    auto summary = net::summarizeReport(report->report);
    if (!summary || !summary->ok || summary->output != request.input) {
        std::fprintf(stderr, "FAIL: echo output mismatch\n");
        return 1;
    }

    // Same PAL routed through a simulated TEE backend: the report must
    // carry the backend name and still echo the payload.
    net::WireRequest sgx_request;
    sgx_request.sequence = 2;
    sgx_request.palName = "echo";
    sgx_request.backend = "sgx";
    sgx_request.input = asciiBytes("gate selftest via sgx");
    auto sgx_report = client.call(sgx_request);
    if (!sgx_report) {
        std::fprintf(stderr, "FAIL: sgx call: %s\n",
                     sgx_report.error().message.c_str());
        return 1;
    }
    auto sgx_summary = net::summarizeReport(sgx_report->report);
    if (!sgx_summary || !sgx_summary->ok ||
        sgx_summary->backend != "sgx" ||
        sgx_summary->output != sgx_request.input) {
        std::fprintf(stderr, "FAIL: sgx-routed echo mismatch\n");
        return 1;
    }

    // A platform whose identity PAL is not whitelisted must be turned
    // away at the handshake -- before any submit can exist.
    net::ClientConfig rogueConfig;
    rogueConfig.name = "rogue-client";
    rogueConfig.identitySeed = 8;
    net::GatewayClient rogue(rogueConfig);
    if (auto s = rogue.connect(gateway.port()); s.ok()) {
        std::fprintf(stderr, "FAIL: rogue client was admitted\n");
        return 1;
    }

    client.bye();
    gateway.stop();
    const net::GatewayStats &stats = gateway.stats();
    if (stats.handshakesCompleted != 1 || stats.handshakesRefused != 1 ||
        stats.reportsDelivered != 2) {
        std::fprintf(stderr, "FAIL: unexpected stats\n%s",
                     stats.str().c_str());
        return 1;
    }
    std::printf("mintcb-gate selftest: PASS\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mintcb;

    net::GatewayConfig config;
    config.drainBatch = 1;
    std::size_t workers = 0; // service default
    std::size_t shards = 0;
    std::string defaultBackend;
    bool dumpMetrics = false;

    auto nextArg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return selftest();
        if (arg == "--port")
            config.port =
                static_cast<std::uint16_t>(std::atoi(nextArg(i)));
        else if (arg == "--workers")
            workers = static_cast<std::size_t>(std::atol(nextArg(i)));
        else if (arg == "--shards")
            shards = static_cast<std::size_t>(std::atol(nextArg(i)));
        else if (arg == "--batch")
            config.drainBatch =
                static_cast<std::size_t>(std::atol(nextArg(i)));
        else if (arg == "--max-inflight")
            config.maxInflight =
                static_cast<std::size_t>(std::atol(nextArg(i)));
        else if (arg == "--rate-burst")
            config.rateBurst =
                static_cast<std::uint32_t>(std::atol(nextArg(i)));
        else if (arg == "--rate-per-sec")
            config.ratePerSecond = std::atof(nextArg(i));
        else if (arg == "--idle-ms")
            config.idleTimeoutMillis =
                static_cast<std::uint64_t>(std::atoll(nextArg(i)));
        else if (arg == "--backend")
            defaultBackend = nextArg(i);
        else if (arg == "--metrics")
            dumpMetrics = true;
        else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return 2;
        }
    }

    machine::Machine machine =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    sea::ServiceConfig serviceConfig;
    if (workers != 0)
        serviceConfig.workers = workers;
    if (shards != 0)
        serviceConfig.shards = shards;
    sea::ExecutionService service(machine, serviceConfig);
    net::PalRegistry registry = stockRegistry();
    if (!defaultBackend.empty()) {
        if (!service.registry().has(defaultBackend)) {
            std::fprintf(stderr,
                         "mintcb-gate: unknown backend '%s'"
                         " (registered:",
                         defaultBackend.c_str());
            for (const std::string &n : service.registry().names())
                std::fprintf(stderr, " %s", n.c_str());
            std::fprintf(stderr, ")\n");
            return 2;
        }
        registry.setDefaultBackend(defaultBackend);
    }

    net::Gateway gateway(machine, service, registry, config);
    gateway.trustClientPal(net::AttestedIdentity::clientPal());
    if (auto s = gateway.bind(); !s.ok()) {
        std::fprintf(stderr, "mintcb-gate: %s\n",
                     s.error().message.c_str());
        return 1;
    }

    g_gateway = &gateway;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::printf("mintcb-gate: listening on 127.0.0.1:%u\n",
                gateway.port());
    for (const std::string &name : registry.names())
        std::printf("mintcb-gate: serving PAL '%s'\n", name.c_str());
    for (const std::string &name : service.registry().names()) {
        std::printf("mintcb-gate: backend '%s'%s\n", name.c_str(),
                    (name == defaultBackend ||
                     (defaultBackend.empty() &&
                      name == backend::defaultBackendName))
                        ? " (default)"
                        : "");
    }
    std::fflush(stdout);

    if (auto s = gateway.run(); !s.ok()) {
        std::fprintf(stderr, "mintcb-gate: %s\n",
                     s.error().message.c_str());
        return 1;
    }
    g_gateway = nullptr;

    std::printf("%s", gateway.stats().str().c_str());
    if (dumpMetrics) {
        obs::MetricsRegistry metrics;
        obs::bridgeCounters(metrics, gateway.stats(),
                            {{"gateway", config.subject}});
        std::printf("%s", metrics.renderPrometheus().c_str());
    }
    return 0;
}
