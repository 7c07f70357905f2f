/**
 * @file
 * Temporal-property checker implementation.
 */

#include "verify/temporal.hh"

#include <map>

#include "rec/lifecycle.hh"

namespace mintcb::verify
{

std::string
TemporalFinding::str() const
{
    return "[" + property + "] at event " + std::to_string(seq) + ": " +
           detail;
}

std::string
TemporalReport::str() const
{
    if (findings.empty())
        return "all temporal properties hold";
    std::string out =
        std::to_string(findings.size()) + " temporal finding(s):\n";
    for (const TemporalFinding &f : findings) {
        out += "  ";
        out += f.str();
        out += '\n';
    }
    return out;
}

TemporalReport
checkTemporal(const ExecutionTrace &trace)
{
    using rec::PalState;

    TemporalReport report;
    auto finding = [&](const char *property, std::uint64_t seq,
                       std::string detail) {
        report.findings.push_back(
            {property, seq, std::move(detail)});
    };

    // Per-SECB lifecycle replay keyed by (request id, PAL name), so
    // requests may share a name; rec::checkTransition decides legality.
    using SecbKey = std::pair<std::uint64_t, std::string>;
    auto label = [](const SecbKey &key) {
        return key.first == 0 ? key.second
                              : key.second + " (request " +
                                    std::to_string(key.first) + ")";
    };
    std::map<SecbKey, PalState> pals;
    auto step = [&](const TraceEvent &e, PalState to) {
        const SecbKey key{e.requestId, e.subject};
        auto it = pals.find(key);
        const PalState from =
            it == pals.end() ? PalState::start : it->second;
        if (auto s = rec::checkTransition(from, to); !s.ok()) {
            finding("lifecycle", e.seq,
                    label(key) + ": " +
                        std::string(traceEventKindName(e.kind)) + " -- " +
                        s.error().str());
        }
        pals[key] = to;
    };

    // Session protocol: opened / resumed / closed / used.
    bool sessionOpened = false; //!< ever opened
    bool sessionLive = false;   //!< open and not yet closed

    for (const TraceEvent &e : trace.events()) {
        switch (e.kind) {
          case TraceEventKind::slaunch:
            step(e, PalState::execute);
            break;
          case TraceEventKind::syield:
            step(e, PalState::suspend);
            break;
          case TraceEventKind::sfree:
          case TraceEventKind::skill:
            step(e, PalState::done);
            break;
          case TraceEventKind::barrier:
          case TraceEventKind::drainBegin:
          case TraceEventKind::drainEnd:
            break;
          case TraceEventKind::sessionOpen:
            sessionOpened = true;
            sessionLive = true;
            break;
          case TraceEventKind::sessionResume:
            if (!sessionOpened) {
                finding("session-resume-before-open", e.seq,
                        "transport session resumed but never opened");
            } else if (!sessionLive) {
                finding("session-use-after-close", e.seq,
                        "transport session resumed after close");
            }
            break;
          case TraceEventKind::sessionClose:
            if (!sessionLive) {
                finding("session-close", e.seq,
                        "close without a live transport session");
            }
            sessionLive = false;
            break;
          case TraceEventKind::transportExchange:
            if (!sessionLive) {
                finding("session-use-after-close", e.seq,
                        sessionOpened
                            ? "transport exchange after session close"
                            : "transport exchange before session open");
            }
            break;
        }
    }

    // Liveness at end of trace: every launched PAL reached Done, so its
    // pages and sePCR were surrendered (SFREE or SKILL happened).
    for (const auto &[key, state] : pals) {
        if (state != PalState::done) {
            finding("slaunch-unpaired", trace.size(),
                    label(key) + " ends the trace in state " +
                        std::string(rec::palStateName(state)) +
                        " (no SFREE/SKILL)");
        }
    }
    return report;
}

TemporalReport
lintMetrics(const sea::ServiceMetrics &metrics)
{
    TemporalReport report;
    auto require = [&](bool ok, const char *property,
                       std::string detail) {
        if (!ok)
            report.findings.push_back({property, 0, std::move(detail)});
    };

    require(metrics.completed <= metrics.submitted, "metrics-accounting",
            "completed (" + std::to_string(metrics.completed) +
                ") exceeds submitted (" +
                std::to_string(metrics.submitted) + ")");
    require(metrics.failed <= metrics.completed, "metrics-accounting",
            "failed (" + std::to_string(metrics.failed) +
                ") exceeds completed (" +
                std::to_string(metrics.completed) + ")");
    require(metrics.deadlinesMissed <= metrics.completed,
            "metrics-accounting",
            "deadlinesMissed (" + std::to_string(metrics.deadlinesMissed) +
                ") exceeds completed (" +
                std::to_string(metrics.completed) + ")");
    require(metrics.auditExchanges <= metrics.auditCommands,
            "metrics-accounting",
            "auditExchanges (" + std::to_string(metrics.auditExchanges) +
                ") exceeds auditCommands (" +
                std::to_string(metrics.auditCommands) +
                "): batching can only coalesce");
    if (metrics.failed <= metrics.completed) {
        require(metrics.launches >= metrics.completed - metrics.failed,
                "metrics-accounting",
                "fewer launches (" + std::to_string(metrics.launches) +
                    ") than successful completions");
    }
    return report;
}

} // namespace mintcb::verify
