/**
 * @file
 * Unit tests for the metrics registry: series identity, pull
 * callbacks, component-struct bridges, and Prometheus exposition.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/counters.hh"
#include "obs/metrics.hh"

namespace mintcb::obs
{
namespace
{

TEST(Metrics, CounterFindOrCreateReturnsSameHandle)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("mintcb_events_total", "events");
    Counter &b = reg.counter("mintcb_events_total", "events");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.seriesCount(), 1u);
}

TEST(Metrics, LabelsDistinguishSeries)
{
    MetricsRegistry reg;
    Counter &read = reg.counter("mintcb_ops_total", "ops",
                                {{"op", "read"}});
    Counter &write = reg.counter("mintcb_ops_total", "ops",
                                 {{"op", "write"}});
    EXPECT_NE(&read, &write);
    read.inc();
    write.inc(2);
    EXPECT_EQ(reg.value("mintcb_ops_total", {{"op", "read"}}), 1.0);
    EXPECT_EQ(reg.value("mintcb_ops_total", {{"op", "write"}}), 2.0);
    EXPECT_EQ(reg.seriesCount(), 2u);
}

TEST(Metrics, ValueOfUnknownSeriesIsZero)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.value("mintcb_nope_total"), 0.0);
}

TEST(Metrics, GaugeMoves)
{
    MetricsRegistry reg;
    Gauge &g = reg.gauge("mintcb_queue_depth", "depth");
    g.set(5.0);
    g.add(-2.0);
    EXPECT_EQ(reg.value("mintcb_queue_depth"), 3.0);
}

TEST(Metrics, CallbackSampledAtRenderTime)
{
    MetricsRegistry reg;
    double live = 1.0;
    reg.addCallback("mintcb_live_total", "live", {},
                    [&live] { return live; });
    EXPECT_EQ(reg.value("mintcb_live_total"), 1.0);
    live = 42.0; // pull series read the source at render time
    EXPECT_EQ(reg.value("mintcb_live_total"), 42.0);
    EXPECT_NE(reg.renderPrometheus().find("mintcb_live_total 42"),
              std::string::npos);
}

TEST(Metrics, PrometheusExpositionShape)
{
    MetricsRegistry reg;
    reg.counter("mintcb_events_total", "How many events.",
                {{"kind", "good"}})
        .inc(7);
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# HELP mintcb_events_total How many events."),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE mintcb_events_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("mintcb_events_total{kind=\"good\"} 7"),
              std::string::npos);
}

TEST(Metrics, HistogramExposedAsCumulativeBuckets)
{
    MetricsRegistry reg;
    LatencyHistogram &h =
        reg.histogram("mintcb_latency", "op latency");
    h.add(Duration::micros(1));   // bucket [0, 2) us
    h.add(Duration::micros(3));   // bucket [2, 4) us
    h.add(Duration::micros(100)); // later bucket
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# TYPE mintcb_latency histogram"),
              std::string::npos);
    // Cumulative: the le="4e-06" (seconds) bucket holds 2 samples.
    EXPECT_NE(text.find("_bucket{"), std::string::npos);
    EXPECT_NE(text.find("mintcb_latency_count 3"), std::string::npos);
    EXPECT_NE(text.find("+Inf"), std::string::npos);
}

TEST(Metrics, NonFiniteAndHugeValuesUseExpositionSpelling)
{
    MetricsRegistry reg;
    reg.gauge("mintcb_nan", "nan").set(std::nan(""));
    reg.gauge("mintcb_pos_inf", "+inf").set(HUGE_VAL);
    reg.gauge("mintcb_neg_inf", "-inf").set(-HUGE_VAL);
    reg.addCallback("mintcb_two_pow_63", "2^63", {},
                    [] { return 9223372036854775808.0; });
    reg.gauge("mintcb_neg_huge", "-1e20").set(-1e20);
    reg.gauge("mintcb_neg_zero", "-0").set(-0.0);
    reg.gauge("mintcb_fraction", "fraction").set(0.25);
    const std::string text = reg.renderPrometheus();
    for (const char *line :
         {"\nmintcb_nan NaN\n", "\nmintcb_pos_inf +Inf\n",
          "\nmintcb_neg_inf -Inf\n",
          "\nmintcb_two_pow_63 9223372036854775808\n",
          "\nmintcb_neg_huge -100000000000000000000\n",
          "\nmintcb_neg_zero 0\n", "\nmintcb_fraction 0.25\n"}) {
        EXPECT_NE(text.find(line), std::string::npos) << line << text;
    }
}

TEST(Metrics, BridgeReadsLiveStruct)
{
    MetricsRegistry reg;
    TpmStats stats;
    bridgeCounters(reg, stats, {{"chip", "infineon"}});
    EXPECT_EQ(reg.value("mintcb_tpm_extends_total",
                        {{"chip", "infineon"}}),
              0.0);
    stats.extends = 9;
    stats.unseals = 2;
    EXPECT_EQ(reg.value("mintcb_tpm_extends_total",
                        {{"chip", "infineon"}}),
              9.0);
    EXPECT_EQ(reg.value("mintcb_tpm_unseals_total",
                        {{"chip", "infineon"}}),
              2.0);
}

} // namespace
} // namespace mintcb::obs
