#include "common/metrics.hh"

#include <algorithm>
#include <charconv>
#include <cstdint>

#include "common/json.hh"
#include "common/log.hh"

namespace cais
{

namespace
{

/** First index of the path-sorted table @p p whose path is >= @p key. */
std::size_t
lowerBound(const MetricPathTable &p, std::string_view key)
{
    std::size_t lo = 0, hi = p.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (p[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/** Index of @p path in the path-sorted table @p p, or p.size(). */
std::size_t
sortedIndexOf(const MetricPathTable &p, std::string_view path)
{
    const std::size_t i = lowerBound(p, path);
    return i < p.size() && p[i] == path ? i : p.size();
}

/**
 * A '*' pattern split once into its literal head (before the first
 * '*'), its literal tail (after the last) and the middle between them,
 * whose '*'-separated literals must appear in order.
 */
struct Glob
{
    std::string_view head, mid, tail;
    bool star = false;

    explicit Glob(std::string_view pattern) : head(pattern)
    {
        const std::size_t first = pattern.find('*');
        if (first == std::string_view::npos)
            return;
        const std::size_t last = pattern.rfind('*');
        star = true;
        head = pattern.substr(0, first);
        mid = pattern.substr(first + 1, last - first - (last > first));
        tail = pattern.substr(last + 1);
    }

    bool
    matches(std::string_view path) const
    {
        if (!star)
            return path == head;
        if (path.size() < head.size() + tail.size() ||
            !path.ends_with(tail) || !path.starts_with(head))
            return false;
        // Each middle literal at its leftmost place after the one
        // before: if any placement fits, this one does.
        std::string_view rest = path.substr(
            head.size(), path.size() - head.size() - tail.size());
        for (std::string_view m = mid; !m.empty();) {
            const std::size_t cut = m.find('*');
            const std::string_view lit = m.substr(0, cut);
            const std::size_t at = rest.find(lit);
            if (at == std::string_view::npos)
                return false;
            rest.remove_prefix(at + lit.size());
            if (cut == std::string_view::npos)
                break;
            m.remove_prefix(cut + 1);
        }
        return true;
    }
};

/**
 * Call @p fn(i) for every index of the path-sorted table @p p whose
 * path matches @p pattern, in path order. The paths that start with
 * the pattern's literal head are one contiguous run of the table, so
 * only that run is tested.
 */
template <class F>
void
forMatches(const MetricPathTable &p, std::string_view pattern, F &&fn)
{
    const Glob g(pattern);
    for (std::size_t i = lowerBound(p, g.head);
         i < p.size() && p[i].starts_with(g.head); ++i)
        if (g.matches(p[i]))
            fn(i);
}

} // namespace

// --- MetricSnapshot --------------------------------------------------

MetricSnapshot::MetricSnapshot(
    std::shared_ptr<const MetricPathTable> path_table,
    std::vector<MetricValue> values)
    : paths(std::move(path_table)), vals(std::move(values))
{
    if (paths->size() != vals.size())
        panic("metric snapshot has %zu paths but %zu values",
              paths->size(), vals.size());
}

const MetricValue *
MetricSnapshot::find(std::string_view path) const
{
    const std::size_t i = sortedIndexOf(*paths, path);
    return i < vals.size() ? &vals[i] : nullptr;
}

bool
MetricSnapshot::matches(std::string_view pattern,
                        std::string_view path)
{
    return Glob(pattern).matches(path);
}

std::uint64_t
integerReading(const MetricValue &v)
{
    // A time series leaves u64 at 0.
    return v.kind == MetricKind::histogram ? v.count : v.u64;
}

std::uint64_t
MetricSnapshot::sumU64(std::string_view pattern) const
{
    std::uint64_t total = 0;
    forMatches(*paths, pattern,
               [&](std::size_t i) { total += integerReading(vals[i]); });
    return total;
}

std::uint64_t
MetricSnapshot::maxU64(std::string_view pattern) const
{
    std::uint64_t best = 0;
    forMatches(*paths, pattern, [&](std::size_t i) {
        best = std::max(best, integerReading(vals[i]));
    });
    return best;
}

void
MetricSnapshot::forEach(
    std::string_view pattern,
    const std::function<void(const std::string &, const MetricValue &)>
        &fn) const
{
    std::string path; // one buffer for every match
    forMatches(*paths, pattern, [&](std::size_t i) {
        path.assign((*paths)[i]);
        fn(path, vals[i]);
    });
}

void
MetricSnapshot::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (std::size_t i = 0; i < vals.size(); ++i) {
        const MetricValue &v = vals[i];
        w.key((*paths)[i]);
        w.beginObject();
        switch (v.kind) {
          case MetricKind::counter:
            w.field("kind", "counter").field("value", v.u64);
            break;
          case MetricKind::gaugeU64:
            w.field("kind", "gaugeU64").field("value", v.u64);
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
MetricRegistry::insert(std::string_view path, const Slot &slot)
{
    if (path.empty())
        panic("metric registered with empty path");
    // A path above the last one is above every earlier one too, so
    // it cannot be a duplicate.
    if (paths->size()) {
        const std::string_view last = (*paths)[paths->size() - 1];
        const int cmp = path.compare(last);
        if (cmp == 0)
            panic("duplicate metric path '%.*s'",
                  static_cast<int>(path.size()), path.data());
        if (cmp < 0)
            panic("metric path '%.*s' added after '%.*s': paths must "
                  "arrive in strictly increasing byte order",
                  static_cast<int>(path.size()), path.data(),
                  static_cast<int>(last.size()), last.data());
    }
    // A snapshot still reading the path table keeps its own copy.
    if (paths.use_count() > 1)
        paths = std::make_shared<MetricPathTable>(*paths);

    std::string &chars = paths->chars;
    if (chars.size() + path.size() > UINT32_MAX)
        panic("metric path table exceeds 4 GiB");
    paths->at.emplace_back(static_cast<std::uint32_t>(chars.size()),
                           static_cast<std::uint32_t>(path.size()));
    chars.append(path);
    slots.push_back(slot);
}

void
MetricPath::put(std::uint64_t id)
{
    char digits[20]; // UINT64_MAX has 20 digits
    buf.append(digits, std::to_chars(digits, digits + 20, id).ptr);
}

void
MetricRegistry::addCounter(std::string_view path, const Counter *c)
{
    insert(path, bind(MetricKind::counter, c,
                      [](const Counter *ctr, MetricValue &v) {
        v.u64 = ctr->value();
    }));
}

void
MetricRegistry::addHistogram(std::string_view path, const Histogram *h)
{
    insert(path, bind(MetricKind::histogram, h,
                      [](const Histogram *hist, MetricValue &v) {
        v.count = hist->count();
        v.mean = hist->mean();
        v.min = hist->min();
        v.max = hist->max();
        v.p50 = hist->percentile(0.50);
        v.p90 = hist->percentile(0.90);
        v.p99 = hist->percentile(0.99);
        v.p999 = hist->percentile(0.999);
    }));
}

MetricSnapshot
MetricRegistry::snapshot() const
{
    std::vector<MetricValue> vals(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Slot &s = slots[i];
        vals[i].kind = s.kind;
        vals[i].binWidth = s.binWidth;
        s.read(s, vals[i]);
    }
    return MetricSnapshot(paths, std::move(vals));
}

} // namespace cais
