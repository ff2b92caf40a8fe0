/**
 * @file
 * Hierarchical metric registry: the unified observability layer's
 * backbone (DESIGN.md §6d).
 *
 * Components own their statistics by value (Counter / Histogram
 * from common/stats.hh); a MetricRegistry holds non-owning readers
 * under dotted paths such as
 *
 *     switch0.merge.loadHits
 *     switch0.merge.port3.peakTableBytes
 *     gpu2.hbm.bytes
 *
 * Every instrumented component implements the Probe interface and
 * self-registers under a caller-chosen prefix; System::registerMetrics
 * walks the whole machine, adding every path above its predecessor in
 * byte order (the only order the registry accepts). Reading happens
 * only at snapshot() time, so registration is free during simulation
 * and the layer is determinism-neutral by construction: registering
 * and snapshotting never schedules events or mutates simulation
 * state.
 *
 * Naming convention: `<component-instance>.<engine>.<metric>`, all
 * lowerCamelCase segments, instance ids suffixed without separators
 * (switch0, gpu3, port5, vc2). Aggregation across instances is done
 * by pattern queries on the snapshot ('*' matches any run of
 * characters), e.g. sumU64("switch*.merge.loadReqs").
 */

#ifndef CAIS_COMMON_METRICS_HH
#define CAIS_COMMON_METRICS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace cais
{

class JsonWriter;

/** What a metric path denotes. */
enum class MetricKind : std::uint8_t
{
    counter,    ///< monotonically increasing integer
    gaugeU64,   ///< point-in-time scalar (exact integer)
    histogram,  ///< Histogram summary: count/mean/min/max + percentiles
    timeSeries, ///< binned series (bin width + values)
};

/** One metric's value at snapshot time. */
struct MetricValue
{
    MetricKind kind = MetricKind::counter;

    /** Value of a counter or gaugeU64 (exact: counters like
     *  eventsExecuted pass 2^53); 0 for the other kinds. */
    std::uint64_t u64 = 0;

    // histogram summary
    std::uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;

    // time series
    Cycle binWidth = 0;
    std::vector<double> bins;
};

/**
 * Integer reading of @p v as the U64 pattern queries count it: the
 * exact value of a counter or gaugeU64, the sample count of a
 * histogram, 0 for a time series.
 */
std::uint64_t integerReading(const MetricValue &v);

/**
 * Dotted paths stored back to back in one character buffer: a
 * registry's path table, shared read-only with its snapshots.
 */
struct MetricPathTable
{
    std::string chars;
    /** (offset, length) in chars of the path of slot i. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> at;

    std::size_t size() const { return at.size(); }

    std::string_view
    operator[](std::size_t i) const
    {
        return {chars.data() + at[i].first, at[i].second};
    }
};

/**
 * A read-only view of every registered metric, taken at one instant:
 * a path-sorted flat array of readings. The path table is shared with
 * the registry that took the snapshot (never copied), so a snapshot
 * costs one MetricValue per metric and may outlive the registry.
 * Pattern arguments use '*' to match any run of characters (including
 * dots), so "switch*.merge.loadReqs" and "*.hbm.bytes" both work. A
 * query tests only the paths that start with the pattern's literal
 * head (one binary search), and rejects a path on its literal tail
 * before walking any '*'.
 */
class MetricSnapshot
{
  public:
    /** Number of metrics; indices below run in path order. */
    std::size_t size() const { return vals.size(); }
    std::string_view path(std::size_t i) const { return (*paths)[i]; }
    const MetricValue &value(std::size_t i) const { return vals[i]; }

    /** Metric at exactly @p path, or nullptr. */
    const MetricValue *find(std::string_view path) const;

    /** Sum of exact-integer readings over matching counters /
     *  gaugeU64s (histograms contribute their count). */
    std::uint64_t sumU64(std::string_view pattern) const;

    /** Max of exact-integer readings over matching metrics. */
    std::uint64_t maxU64(std::string_view pattern) const;

    /** Visit every matching (path, value) pair in path order. */
    void forEach(std::string_view pattern,
                 const std::function<void(const std::string &,
                                          const MetricValue &)> &fn)
        const;

    /** '*'-wildcard match of @p pattern against @p path. */
    static bool matches(std::string_view pattern, std::string_view path);

    /**
     * Serialize as a JSON object mapping dotted paths to typed metric
     * entries ({"kind": ..., ...}); the "metrics" section of the run
     * report (see analysis/report.hh for the enclosing schema).
     */
    void writeJson(JsonWriter &w) const;

  private:
    friend class MetricRegistry;

    /** @p values[i] is the reading at (*paths)[i]; paths sorted. */
    MetricSnapshot(std::shared_ptr<const MetricPathTable> paths,
                   std::vector<MetricValue> values);

    std::shared_ptr<const MetricPathTable> paths;
    std::vector<MetricValue> vals;
};

/**
 * Non-owning registry of metric readers under dotted paths.
 *
 * Flat layout: a MetricPathTable and a parallel vector of compact
 * slots (kind tag, plain reader function, and inline state: the
 * stats object's pointer or a small lambda). No std::function, no
 * heap node per metric.
 *
 * Paths must be added in strictly increasing byte order, as
 * System::registerMetrics adds them: each costs one comparison with
 * the previous path, which is also the duplicate check, and the table
 * is in path order without a sort. A path that is not above its
 * predecessor panics and names both.
 */
class MetricRegistry
{
  public:
    void addCounter(std::string_view path, const Counter *c);
    void addHistogram(std::string_view path, const Histogram *h);

    /**
     * Computed binned series, read at snapshot time (for series that
     * are derived from windowed state rather than held in a
     * TimeSeries object, e.g. the fabric utilization-over-time
     * series of Fig. 16). @p reader: () -> std::vector<double>.
     */
    template <class F>
    void
    addTimeSeriesFn(std::string_view path, Cycle bin_width, F reader)
    {
        Slot s = bind(MetricKind::timeSeries, reader,
                      [](const F &f, MetricValue &v) { v.bins = f(); });
        s.binWidth = bin_width;
        insert(path, s);
    }

    /** Computed exact-integer scalar, read at snapshot time. */
    template <class F>
    void
    addGaugeU64(std::string_view path, F reader)
    {
        insert(path, bind(MetricKind::gaugeU64, reader,
                          [](const F &f, MetricValue &v) {
            v.u64 = f();
        }));
    }

    /** Number of registered paths. */
    std::size_t size() const { return slots.size(); }

    /** Read every metric now. */
    MetricSnapshot snapshot() const;

  private:
    struct Slot;
    /** Fills @p v (kind and bin width already set) from @p s. */
    using ReadFn = void (*)(const Slot &s, MetricValue &v);

    struct Slot
    {
        MetricKind kind = MetricKind::counter;
        ReadFn read = nullptr;
        Cycle binWidth = 0; ///< computed series only
        /** What read() reads through: the stats object's pointer, or
         *  a computed kind's lambda (capturing one or two pointers). */
        alignas(void *) unsigned char state[2 * sizeof(void *)] = {};
    };

    /**
     * Slot of @p kind holding @p state, read by @p Fill: a
     * captureless lambda (State, MetricValue &), so the reader decays
     * to the plain ReadFn.
     */
    template <class State, class Fill>
    static Slot
    bind(MetricKind kind, const State &state, Fill)
    {
        static_assert(sizeof(State) <= sizeof(Slot::state) &&
                          alignof(State) <= alignof(void *) &&
                          std::is_trivially_copyable_v<State>,
                      "a metric reader captures at most two pointers "
                      "(capture this, or the object it reads)");
        Slot s;
        s.kind = kind;
        ::new (static_cast<void *>(s.state)) State(state);
        s.read = [](const Slot &sl, MetricValue &v) {
            const auto *st = reinterpret_cast<const State *>(sl.state);
            Fill{}(*std::launder(st), v);
        };
        return s;
    }

    /** Append @p slot under @p path, above the last path. */
    void insert(std::string_view path, const Slot &slot);

    /** Path of slot i at at[i]; shared with snapshots, copied before
     *  an add while one holds it. */
    std::shared_ptr<MetricPathTable> paths =
        std::make_shared<MetricPathTable>();
    std::vector<Slot> slots;
};

/**
 * A dotted metric path built in one reused buffer. A probe names each
 * leaf as path("loadReqs") or path("port", 3, ".peakBytes") and gets
 * back `prefix.loadReqs` or `prefix.port3.peakBytes` without building
 * a string temporary. The returned string holds until the next call.
 */
class MetricPath
{
  public:
    /** Paths under @p prefix; an empty prefix makes top-level paths. */
    explicit MetricPath(std::string_view prefix)
    {
        buf.reserve(prefix.size() + 40); // + the longest leaf
        buf.append(prefix);
        if (!buf.empty())
            buf += '.';
        base = buf.size();
    }

    /** `prefix.` followed by @p parts: strings, and integers written
     *  in decimal. */
    template <class... Parts>
    const std::string &
    operator()(const Parts &...parts)
    {
        buf.resize(base);
        (put(parts), ...);
        return buf;
    }

  private:
    void put(std::string_view s) { buf.append(s); }
    void put(std::uint64_t id);

    std::string buf;
    std::size_t base = 0;
};

/**
 * Calls @p fn(i) for every i in [@p lo, @p hi) in the byte order of
 * their decimal strings: 0, 1, 10, 11, ..., 19, 2, 20, .... A path
 * component such as gpu<i> or port<i> is always followed by '.',
 * which sorts below every digit, so this is the byte order of the
 * children's paths. Probes walk indexed children through it to add
 * their paths in path order.
 */
template <class F>
void
forEachInPathOrder(int lo, int hi, F &&fn)
{
    if (hi <= 0)
        return;
    if (lo <= 0)
        fn(0);
    // Preorder walk of the decimal trie over 1 .. hi - 1: descend to
    // i * 10 while it is in range, else step to the next sibling,
    // climbing past exhausted digits.
    int i = 1;
    for (int left = hi - 1; left > 0; --left) {
        if (i >= lo)
            fn(i);
        if (i <= (hi - 1) / 10) {
            i *= 10;
        } else {
            while (i % 10 == 9 || i + 1 >= hi)
                i /= 10;
            ++i;
        }
    }
}

/**
 * Interface of a component that publishes metrics. Implementations
 * register every metric they own under `prefix + "."` and recurse
 * into sub-components with an extended prefix, in path order (leaf
 * names in byte order, indexed children through forEachInPathOrder):
 * the registry panics on a path that is not above the previous one.
 * Registration must not change simulation behaviour (readers only).
 */
class Probe
{
  public:
    virtual ~Probe() = default;

    virtual void registerMetrics(MetricRegistry &reg,
                                 const std::string &prefix) const = 0;
};

} // namespace cais

#endif // CAIS_COMMON_METRICS_HH
