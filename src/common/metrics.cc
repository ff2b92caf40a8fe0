#include "common/metrics.hh"

#include <algorithm>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"

namespace cais
{

// --- MetricSnapshot --------------------------------------------------

const MetricValue *
MetricSnapshot::find(const std::string &path) const
{
    auto it = vals.find(path);
    return it == vals.end() ? nullptr : &it->second;
}

bool
MetricSnapshot::matches(const std::string &pattern,
                        const std::string &path)
{
    // Iterative glob over '*' (matches any run of characters). No
    // character classes; metric paths are plain ASCII.
    std::size_t p = 0, s = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (s < path.size()) {
        if (p < pattern.size() &&
            (pattern[p] == path[s])) {
            ++p;
            ++s;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = s;
        } else if (star != std::string::npos) {
            p = star + 1;
            s = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

std::uint64_t
integerReading(const MetricValue &v)
{
    switch (v.kind) {
      case MetricKind::counter:
      case MetricKind::gaugeU64:
        return v.u64;
      case MetricKind::stats:
      case MetricKind::histogram:
        return v.count;
      default:
        return static_cast<std::uint64_t>(v.value);
    }
}

std::uint64_t
MetricSnapshot::sumU64(const std::string &pattern) const
{
    std::uint64_t total = 0;
    for (const auto &[path, v] : vals)
        if (matches(pattern, path))
            total += integerReading(v);
    return total;
}

std::uint64_t
MetricSnapshot::maxU64(const std::string &pattern) const
{
    std::uint64_t best = 0;
    for (const auto &[path, v] : vals)
        if (matches(pattern, path))
            best = std::max(best, integerReading(v));
    return best;
}

double
MetricSnapshot::sum(const std::string &pattern) const
{
    double total = 0.0;
    for (const auto &[path, v] : vals)
        if (matches(pattern, path))
            total += v.value;
    return total;
}

void
MetricSnapshot::forEach(
    const std::string &pattern,
    const std::function<void(const std::string &, const MetricValue &)>
        &fn) const
{
    for (const auto &[path, v] : vals)
        if (matches(pattern, path))
            fn(path, v);
}

void
MetricSnapshot::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[path, v] : vals) {
        w.key(path);
        w.beginObject();
        switch (v.kind) {
          case MetricKind::counter:
            w.field("kind", "counter").field("value", v.u64);
            break;
          case MetricKind::gaugeU64:
            w.field("kind", "gaugeU64").field("value", v.u64);
            break;
          case MetricKind::gauge:
            w.field("kind", "gauge").field("value", v.value);
            break;
          case MetricKind::stats:
            w.field("kind", "stats")
                .field("count", v.count)
                .field("mean", v.mean)
                .field("min", v.min)
                .field("max", v.max);
            break;
          case MetricKind::histogram:
            w.field("kind", "histogram")
                .field("count", v.count)
                .field("mean", v.mean)
                .field("min", v.min)
                .field("max", v.max)
                .field("p50", v.p50)
                .field("p90", v.p90)
                .field("p99", v.p99)
                .field("p999", v.p999);
            break;
          case MetricKind::timeSeries:
            w.field("kind", "timeseries")
                .field("binWidth", static_cast<std::uint64_t>(
                                       v.binWidth));
            w.key("bins").beginArray();
            for (double b : v.bins)
                w.value(b);
            w.endArray();
            break;
        }
        w.endObject();
    }
    w.endObject();
}

// --- MetricRegistry --------------------------------------------------

void
MetricRegistry::insert(const std::string &path, Slot slot)
{
    if (path.empty())
        panic("metric registered with empty path");
    if (!slots.emplace(path, std::move(slot)).second)
        panic("duplicate metric path '%s'", path.c_str());
}

void
MetricRegistry::addCounter(const std::string &path, const Counter *c)
{
    Slot s;
    s.kind = MetricKind::counter;
    s.obj = c;
    insert(path, std::move(s));
}

void
MetricRegistry::addAccumulator(const std::string &path,
                               const Accumulator *a)
{
    Slot s;
    s.kind = MetricKind::stats;
    s.obj = a;
    insert(path, std::move(s));
}

void
MetricRegistry::addHistogram(const std::string &path,
                             const Histogram *h)
{
    Slot s;
    s.kind = MetricKind::histogram;
    s.obj = h;
    insert(path, std::move(s));
}

void
MetricRegistry::addTimeSeries(const std::string &path,
                              const TimeSeries *t)
{
    Slot s;
    s.kind = MetricKind::timeSeries;
    s.obj = t;
    insert(path, std::move(s));
}

void
MetricRegistry::addTimeSeriesFn(
    const std::string &path, Cycle bin_width,
    std::function<std::vector<double>()> reader)
{
    Slot s;
    s.kind = MetricKind::timeSeries;
    s.series = std::move(reader);
    s.seriesBinWidth = bin_width;
    insert(path, std::move(s));
}

void
MetricRegistry::addGauge(const std::string &path,
                         std::function<double()> reader)
{
    Slot s;
    s.kind = MetricKind::gauge;
    s.gauge = std::move(reader);
    insert(path, std::move(s));
}

void
MetricRegistry::addGaugeU64(const std::string &path,
                            std::function<std::uint64_t()> reader)
{
    Slot s;
    s.kind = MetricKind::gaugeU64;
    s.gaugeU64 = std::move(reader);
    insert(path, std::move(s));
}

bool
MetricRegistry::has(const std::string &path) const
{
    return slots.find(path) != slots.end();
}

MetricSnapshot
MetricRegistry::snapshot() const
{
    MetricSnapshot::Map out;
    for (const auto &[path, slot] : slots) {
        MetricValue v;
        v.kind = slot.kind;
        switch (slot.kind) {
          case MetricKind::counter: {
            const auto *c = static_cast<const Counter *>(slot.obj);
            v.u64 = c->value();
            v.value = static_cast<double>(v.u64);
            break;
          }
          case MetricKind::gauge:
            v.value = slot.gauge();
            break;
          case MetricKind::gaugeU64:
            v.u64 = slot.gaugeU64();
            v.value = static_cast<double>(v.u64);
            break;
          case MetricKind::stats: {
            const auto *a = static_cast<const Accumulator *>(slot.obj);
            v.count = a->count();
            v.mean = a->mean();
            v.min = a->min();
            v.max = a->max();
            v.value = static_cast<double>(v.count);
            break;
          }
          case MetricKind::histogram: {
            const auto *h = static_cast<const Histogram *>(slot.obj);
            v.count = h->count();
            v.mean = h->mean();
            v.min = h->min();
            v.max = h->max();
            v.p50 = h->percentile(0.50);
            v.p90 = h->percentile(0.90);
            v.p99 = h->percentile(0.99);
            v.p999 = h->percentile(0.999);
            v.value = static_cast<double>(v.count);
            break;
          }
          case MetricKind::timeSeries: {
            if (slot.series) {
                v.binWidth = slot.seriesBinWidth;
                v.bins = slot.series();
                break;
            }
            const auto *t = static_cast<const TimeSeries *>(slot.obj);
            v.binWidth = t->binWidth();
            v.bins = t->data();
            break;
          }
        }
        out.emplace(path, std::move(v));
    }
    return MetricSnapshot(std::move(out));
}

std::string
MetricRegistry::dump() const
{
    std::ostringstream os;
    MetricSnapshot snap = snapshot();
    for (const auto &[path, v] : snap.all())
        os << path << " = " << v.value << "\n";
    return os.str();
}

} // namespace cais
