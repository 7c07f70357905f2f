/**
 * @file
 * Metrics registry implementation.
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>

namespace mintcb::obs
{

namespace
{

/** Canonical label order so {a=1,b=2} and {b=2,a=1} are one series. */
Labels
sorted(Labels labels)
{
    std::sort(labels.begin(), labels.end());
    return labels;
}

/** Escape a label value for the exposition format. */
std::string
escapeLabelValue(const std::string &v)
{
    std::string out;
    for (char c : v) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

std::string
renderLabels(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += k + "=\"" + escapeLabelValue(v) + "\"";
    }
    out += "}";
    return out;
}

/** Labels plus one extra pair (histogram le="..."). */
std::string
renderLabelsWith(const Labels &labels, const std::string &key,
                 const std::string &value)
{
    Labels all = labels;
    all.emplace_back(key, value);
    return renderLabels(all);
}

std::string
renderNumber(double v)
{
    // The exposition format spells non-finite values this way.
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    // Integral values of any magnitude print without a fraction so
    // counters stay exact; + 0.0 folds -0 into 0.
    char buf[DBL_MAX_10_EXP + 8];
    if (v == std::trunc(v))
        std::snprintf(buf, sizeof buf, "%.0f", v + 0.0);
    else
        std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

MetricsRegistry::Family &
MetricsRegistry::family(const std::string &name, const std::string &help,
                        Kind kind)
{
    for (Family &f : families_) {
        if (f.name == name)
            return f;
    }
    Family f;
    f.name = name;
    f.help = help;
    f.kind = kind;
    families_.push_back(std::move(f));
    return families_.back();
}

MetricsRegistry::Series &
MetricsRegistry::series(Family &fam, Labels labels)
{
    labels = sorted(std::move(labels));
    for (Series &s : fam.series) {
        if (s.labels == labels)
            return s;
    }
    Series s;
    s.labels = std::move(labels);
    fam.series.push_back(std::move(s));
    return fam.series.back();
}

Counter &
MetricsRegistry::counter(const std::string &name, const std::string &help,
                         Labels labels)
{
    Series &s = series(family(name, help, Kind::counter),
                       std::move(labels));
    if (!s.counter)
        s.counter = std::make_unique<Counter>();
    return *s.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help,
                       Labels labels)
{
    Series &s = series(family(name, help, Kind::gauge),
                       std::move(labels));
    if (!s.gauge)
        s.gauge = std::make_unique<Gauge>();
    return *s.gauge;
}

LatencyHistogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help, Labels labels)
{
    Series &s = series(family(name, help, Kind::histogram),
                       std::move(labels));
    if (!s.histogram)
        s.histogram = std::make_unique<LatencyHistogram>();
    return *s.histogram;
}

void
MetricsRegistry::addCallback(const std::string &name,
                             const std::string &help, Labels labels,
                             Sample sample, const std::string &kind)
{
    Family &fam = family(name, help, Kind::callback);
    fam.callbackKind = kind;
    Series &s = series(fam, std::move(labels));
    s.sample = std::move(sample);
}

double
MetricsRegistry::value(const std::string &name, const Labels &labels) const
{
    const Labels wanted = sorted(labels);
    for (const Family &f : families_) {
        if (f.name != name)
            continue;
        for (const Series &s : f.series) {
            if (s.labels != wanted)
                continue;
            if (s.counter)
                return static_cast<double>(s.counter->value());
            if (s.gauge)
                return s.gauge->value();
            if (s.histogram)
                return static_cast<double>(s.histogram->count());
            if (s.sample)
                return s.sample();
        }
    }
    return 0.0;
}

std::size_t
MetricsRegistry::seriesCount() const
{
    std::size_t n = 0;
    for (const Family &f : families_)
        n += f.series.size();
    return n;
}

std::string
MetricsRegistry::renderPrometheus() const
{
    std::vector<const Family *> ordered;
    ordered.reserve(families_.size());
    for (const Family &f : families_)
        ordered.push_back(&f);
    std::sort(ordered.begin(), ordered.end(),
              [](const Family *a, const Family *b) {
                  return a->name < b->name;
              });

    std::string out;
    for (const Family *f : ordered) {
        out += "# HELP " + f->name + " " + f->help + "\n";
        const char *type = "counter";
        switch (f->kind) {
          case Kind::counter: type = "counter"; break;
          case Kind::gauge: type = "gauge"; break;
          case Kind::histogram: type = "histogram"; break;
          case Kind::callback:
            type = f->callbackKind.empty() ? "counter"
                                           : f->callbackKind.c_str();
            break;
        }
        out += "# TYPE " + f->name + " " + type + "\n";
        for (const Series &s : f->series) {
            if (f->kind == Kind::histogram && s.histogram) {
                std::uint64_t cumulative = 0;
                for (std::size_t i = 0;
                     i < LatencyHistogram::bucketCount; ++i) {
                    cumulative += s.histogram->bucket(i);
                    out += f->name + "_bucket" +
                           renderLabelsWith(
                               s.labels, "le",
                               renderNumber(
                                   LatencyHistogram::bucketUpperEdge(i)
                                       .toMicros())) +
                           " " + std::to_string(cumulative) + "\n";
                }
                out += f->name + "_bucket" +
                       renderLabelsWith(s.labels, "le", "+Inf") + " " +
                       std::to_string(cumulative) + "\n";
                const double sum_us =
                    s.histogram->summary().mean() * 1000.0 *
                    static_cast<double>(s.histogram->count());
                out += f->name + "_sum" + renderLabels(s.labels) + " " +
                       renderNumber(sum_us) + "\n";
                out += f->name + "_count" + renderLabels(s.labels) +
                       " " + std::to_string(s.histogram->count()) + "\n";
                continue;
            }
            double v = 0.0;
            if (s.counter)
                v = static_cast<double>(s.counter->value());
            else if (s.gauge)
                v = s.gauge->value();
            else if (s.sample)
                v = s.sample();
            out += f->name + renderLabels(s.labels) + " " +
                   renderNumber(v) + "\n";
        }
    }
    return out;
}

} // namespace mintcb::obs
