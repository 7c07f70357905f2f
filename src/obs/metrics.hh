/**
 * @file
 * Process-wide metrics registry (tentpole of the observability layer).
 *
 * Components keep their existing lightweight counter structs
 * (common/counters.hh, net::GatewayStats, store::StoreStats); the
 * registry *bridges* them: bridgeCounters() walks a struct's field
 * table and registers pull callbacks that read the live struct at
 * render time, so production code never links against obs and pays
 * nothing when no registry exists. Direct counters/gauges/histograms
 * are also available for obs-side instrumentation (the telemetry
 * session feeds TPM/LPC latency histograms this way).
 *
 * renderPrometheus() emits the text exposition format, so one scrape
 * of a long-running simulation campaign drops straight into the usual
 * dashboards.
 */

#ifndef MINTCB_OBS_METRICS_HH
#define MINTCB_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.hh"
#include "common/stats.hh"

namespace mintcb::obs
{

/** Sorted key=value pairs identifying one series within a family. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonically increasing event count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A value that can go up and down (queue depth, busy ratio). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    void add(double d) { value_ += d; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * The registry. Families are created on first use; re-requesting the
 * same (name, labels) returns the same instance, so instrumentation
 * sites can call counter(...) unconditionally. Handles returned by
 * counter()/gauge()/histogram() stay valid for the registry's
 * lifetime (series are heap-allocated).
 */
class MetricsRegistry
{
  public:
    /** Pull callback evaluated at render time (bridges read the live
     *  component struct through one of these). */
    using Sample = std::function<double()>;

    Counter &counter(const std::string &name, const std::string &help,
                     Labels labels = {});
    Gauge &gauge(const std::string &name, const std::string &help,
                 Labels labels = {});
    /** Log-bucketed latency histogram (p50/p90/p99/max via
     *  LatencyHistogram). */
    LatencyHistogram &histogram(const std::string &name,
                                const std::string &help,
                                Labels labels = {});

    /** Register a pull-based series: @p sample runs at render time.
     *  @p kind is "counter" or "gauge" (exposition TYPE line). */
    void addCallback(const std::string &name, const std::string &help,
                     Labels labels, Sample sample,
                     const std::string &kind = "counter");

    /** Current value of a series, pull callbacks included; 0 when the
     *  series does not exist (test/tool convenience). */
    double value(const std::string &name, const Labels &labels = {}) const;

    /** Number of registered series across all families. */
    std::size_t seriesCount() const;

    /** Prometheus text exposition (families sorted by name; HELP/TYPE
     *  once per family; histograms as _bucket/_sum/_count). */
    std::string renderPrometheus() const;

  private:
    enum class Kind
    {
        counter,
        gauge,
        histogram,
        callback,
    };

    struct Series
    {
        Labels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<LatencyHistogram> histogram;
        Sample sample; //!< callback series only
    };

    struct Family
    {
        std::string name;
        std::string help;
        Kind kind = Kind::counter;
        std::string callbackKind; //!< TYPE line for callback families
        std::vector<Series> series;
    };

    Family &family(const std::string &name, const std::string &help,
                   Kind kind);
    Series &series(Family &fam, Labels labels);

    std::vector<Family> families_; //!< stable order: first registration
};

/**
 * Bridge a counter struct (common/counters.hh): one pull callback per
 * row of S::fields(), reading @p stats at render time. The struct must
 * outlive the registry (or the registry be rendered before the
 * component dies). @p labels tag every bridged series.
 */
template <class S>
void
bridgeCounters(MetricsRegistry &reg, const S &stats, Labels labels = {})
{
    for (const CounterField<S> &f : S::fields()) {
        reg.addCallback(
            f.metric, f.help, labels,
            [s = &stats, member = f.member] {
                return static_cast<double>(s->*member);
            },
            f.kind == CounterKind::gauge ? "gauge" : "counter");
    }
}

} // namespace mintcb::obs

#endif // MINTCB_OBS_METRICS_HH
