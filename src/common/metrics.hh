/**
 * @file
 * Hierarchical metric registry: the unified observability layer's
 * backbone (DESIGN.md §6d).
 *
 * Components own their statistics by value (Counter / Accumulator /
 * Histogram / TimeSeries from common/stats.hh); a MetricRegistry
 * holds non-owning readers under dotted paths such as
 *
 *     switch0.merge.loadHits
 *     switch0.merge.port3.peakTableBytes
 *     gpu2.hbm.bytes
 *
 * Every instrumented component implements the Probe interface and
 * self-registers under a caller-chosen prefix; System::registerMetrics
 * walks the whole machine. Reading happens only at snapshot() time, so
 * registration is free during simulation and the layer is
 * determinism-neutral by construction: registering and snapshotting
 * never schedules events or mutates simulation state.
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
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace cais
{

class JsonWriter;

/** What a metric path denotes. */
enum class MetricKind : std::uint8_t
{
    counter,    ///< monotonically increasing integer
    gauge,      ///< point-in-time scalar (double)
    gaugeU64,   ///< point-in-time scalar (exact integer)
    stats,      ///< Accumulator summary: count/mean/min/max
    histogram,  ///< Histogram summary: stats + percentiles
    timeSeries, ///< binned series (bin width + values)
};

/** One metric's value at snapshot time. */
struct MetricValue
{
    MetricKind kind = MetricKind::gauge;

    /** Scalar reading: counter/gaugeU64 value, gauge value; for
     *  stats/histogram this is the sample count (so scalar pattern
     *  queries over mixed kinds behave sensibly); 0 for time series. */
    double value = 0.0;

    /** Exact integer for counter/gaugeU64 (value() loses precision
     *  past 2^53; counters like eventsExecuted must stay exact). */
    std::uint64_t u64 = 0;

    // stats / histogram summary
    std::uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;  ///< histogram only
    double p90 = 0.0;  ///< histogram only
    double p99 = 0.0;  ///< histogram only
    double p999 = 0.0; ///< histogram only

    // time series
    Cycle binWidth = 0;
    std::vector<double> bins;
};

/**
 * Integer reading of @p v as the U64 pattern queries count it: the
 * exact value of a counter or gaugeU64, the sample count of stats and
 * histograms, the truncated scalar otherwise.
 */
std::uint64_t integerReading(const MetricValue &v);

/**
 * A read-only view of every registered metric, taken at one instant.
 * Pattern arguments use '*' to match any run of characters (including
 * dots), so "switch*.merge.loadReqs" and "*.hbm.bytes" both work.
 */
class MetricSnapshot
{
  public:
    using Map = std::map<std::string, MetricValue>;

    explicit MetricSnapshot(Map values) : vals(std::move(values)) {}

    const Map &all() const { return vals; }

    /** Metric at exactly @p path, or nullptr. */
    const MetricValue *find(const std::string &path) const;

    /** Sum of exact-integer readings over matching counters /
     *  gaugeU64s (histograms and stats contribute their count). */
    std::uint64_t sumU64(const std::string &pattern) const;

    /** Max of exact-integer readings over matching metrics. */
    std::uint64_t maxU64(const std::string &pattern) const;

    /** Sum of scalar readings over matching metrics. */
    double sum(const std::string &pattern) const;

    /** Visit every matching (path, value) pair in path order. */
    void forEach(const std::string &pattern,
                 const std::function<void(const std::string &,
                                          const MetricValue &)> &fn)
        const;

    /** '*'-wildcard match of @p pattern against @p path. */
    static bool matches(const std::string &pattern,
                        const std::string &path);

    /**
     * Serialize as a JSON object mapping dotted paths to typed metric
     * entries ({"kind": ..., ...}); the "metrics" section of the run
     * report (see analysis/report.hh for the enclosing schema).
     */
    void writeJson(JsonWriter &w) const;

  private:
    Map vals;
};

/** Non-owning registry of metric readers under dotted paths. */
class MetricRegistry
{
  public:
    void addCounter(const std::string &path, const Counter *c);
    void addAccumulator(const std::string &path, const Accumulator *a);
    void addHistogram(const std::string &path, const Histogram *h);
    void addTimeSeries(const std::string &path, const TimeSeries *t);

    /**
     * Computed binned series, read at snapshot time (for series that
     * are derived from windowed state rather than held in a
     * TimeSeries object, e.g. the fabric utilization-over-time
     * series of Fig. 16).
     */
    void addTimeSeriesFn(const std::string &path, Cycle bin_width,
                         std::function<std::vector<double>()> reader);

    /** Computed scalar, read at snapshot time. */
    void addGauge(const std::string &path,
                  std::function<double()> reader);

    /** Computed exact-integer scalar, read at snapshot time. */
    void addGaugeU64(const std::string &path,
                     std::function<std::uint64_t()> reader);

    /** Number of registered paths. */
    std::size_t size() const { return slots.size(); }

    /** True when @p path is registered. */
    bool has(const std::string &path) const;

    /** Read every metric now. */
    MetricSnapshot snapshot() const;

    /** Render "path = scalar" lines (debugging aid). */
    std::string dump() const;

  private:
    struct Slot
    {
        MetricKind kind;
        const void *obj = nullptr; ///< stats-object kinds
        std::function<double()> gauge;
        std::function<std::uint64_t()> gaugeU64;
        std::function<std::vector<double>()> series;
        Cycle seriesBinWidth = 0;
    };

    void insert(const std::string &path, Slot slot);

    std::map<std::string, Slot> slots;
};

/**
 * Interface of a component that publishes metrics. Implementations
 * register every metric they own under `prefix + "."` and recurse
 * into sub-components with an extended prefix. Registration must not
 * change simulation behaviour (readers only).
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
