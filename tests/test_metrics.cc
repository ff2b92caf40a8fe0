/**
 * @file
 * Unit tests for the observability backbone (DESIGN.md §6d): the
 * hierarchical MetricRegistry and its snapshot pattern queries, the
 * shared JSON writer/parser, the schema-versioned run report, and the
 * cais_report renderer (driven in-process via cais_report_core).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/report.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "report.hh" // tools/cais_report core

using namespace cais;

namespace
{

TEST(MetricRegistry, RegistersAndSnapshotsEveryKind)
{
    MetricRegistry reg;
    Counter c;
    c.inc(42);
    Histogram h(0.0, 10.0, 10);
    h.sample(2.0);
    h.sample(4.0);

    // In path order, as every probe adds them.
    reg.addTimeSeriesFn("sw0.bw", 100,
                        [] { return std::vector<double>{7.0}; });
    reg.addGaugeU64("sw0.peak", [] { return std::uint64_t(99); });
    reg.addCounter("sw0.pkts", &c);
    reg.addHistogram("sw0.stagger", &h);
    EXPECT_EQ(reg.size(), 4u);

    MetricSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.find("sw0.nope"), nullptr);

    const MetricValue *pkts = snap.find("sw0.pkts");
    ASSERT_NE(pkts, nullptr);
    EXPECT_EQ(pkts->kind, MetricKind::counter);
    EXPECT_EQ(pkts->u64, 42u);

    const MetricValue *stagger = snap.find("sw0.stagger");
    ASSERT_NE(stagger, nullptr);
    EXPECT_EQ(stagger->kind, MetricKind::histogram);
    EXPECT_EQ(stagger->count, 2u);
    EXPECT_DOUBLE_EQ(stagger->mean, 3.0);

    const MetricValue *bw = snap.find("sw0.bw");
    ASSERT_NE(bw, nullptr);
    EXPECT_EQ(bw->kind, MetricKind::timeSeries);
    EXPECT_EQ(bw->binWidth, 100u);
    ASSERT_FALSE(bw->bins.empty());
    EXPECT_DOUBLE_EQ(bw->bins[0], 7.0);

    const MetricValue *peak = snap.find("sw0.peak");
    ASSERT_NE(peak, nullptr);
    EXPECT_EQ(peak->kind, MetricKind::gaugeU64);
    EXPECT_EQ(peak->u64, 99u);
}

TEST(MetricRegistry, SnapshotReadsAtCallTime)
{
    MetricRegistry reg;
    Counter c;
    reg.addCounter("c", &c);
    c.inc(5);
    // Registration stores a reader, not a value: the increment after
    // addCounter must be visible.
    EXPECT_EQ(reg.snapshot().find("c")->u64, 5u);
}

TEST(MetricRegistry, RejectsDuplicateAndEmptyPaths)
{
    MetricRegistry reg;
    Counter c;
    reg.addCounter("dup", &c);
    EXPECT_DEATH(reg.addCounter("dup", &c), "duplicate metric path");
    EXPECT_DEATH(reg.addCounter("", &c), "empty path");
}

TEST(MetricRegistry, OutOfOrderAddPanics)
{
    MetricRegistry reg;
    Counter c;
    for (const char *p : {"a.x", "a.y", "b", "b.c"})
        reg.addCounter(p, &c);
    // Below its predecessor, new or not: the panic names both paths.
    EXPECT_DEATH(reg.addCounter("a.z", &c),
                 "metric path 'a.z' added after 'b.c'");
    EXPECT_DEATH(reg.addCounter("b", &c),
                 "metric path 'b' added after 'b.c'");
    EXPECT_DEATH(reg.addCounter("b.c", &c), "duplicate metric path 'b.c'");
    // "port10" sorts before "port2": byte order, not numeric order.
    reg.addCounter("port2", &c);
    EXPECT_DEATH(reg.addCounter("port10", &c),
                 "metric path 'port10' added after 'port2'");
}

TEST(MetricSnapshot, PatternMatching)
{
    // '*' matches any run of characters, including dots.
    EXPECT_TRUE(MetricSnapshot::matches("switch*.merge.loadReqs",
                                        "switch12.merge.loadReqs"));
    EXPECT_TRUE(MetricSnapshot::matches("*", "anything.at.all"));
    EXPECT_TRUE(MetricSnapshot::matches("a.*.c", "a.b.x.c"));
    EXPECT_TRUE(MetricSnapshot::matches("exact", "exact"));
    EXPECT_FALSE(MetricSnapshot::matches("exact", "exactly"));
    // The stagger aggregate must not swallow the load/red variants.
    EXPECT_FALSE(MetricSnapshot::matches(
        "switch*.merge.stagger", "switch0.merge.loadStagger"));
    EXPECT_FALSE(
        MetricSnapshot::matches("a.*.c", "a.b.d"));
}

TEST(MetricSnapshot, AggregatesOverPatterns)
{
    MetricRegistry reg;
    Counter c0, c1, other;
    c0.inc(10);
    c1.inc(32);
    other.inc(1000);
    reg.addCounter("sw0.merge.loadReqs", &c0);
    reg.addCounter("sw0.merge.redReqs", &other);
    reg.addCounter("sw1.merge.loadReqs", &c1);

    MetricSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.sumU64("sw*.merge.loadReqs"), 42u);
    EXPECT_EQ(snap.maxU64("sw*.merge.loadReqs"), 32u);

    int visited = 0;
    snap.forEach("sw*.merge.loadReqs",
                 [&](const std::string &path, const MetricValue &) {
        // forEach visits in path order.
        EXPECT_EQ(path, visited == 0 ? "sw0.merge.loadReqs"
                                     : "sw1.merge.loadReqs");
        ++visited;
    });
    EXPECT_EQ(visited, 2);
}

TEST(MetricPath, ForEachInPathOrderMatchesStringSort)
{
    // Every range [lo, hi) up to 250 against a sort of the ids'
    // decimal strings, each followed by '.' as in a path.
    for (int hi = 0; hi <= 250; ++hi) {
        for (int lo = 0; lo <= hi; lo += lo < 12 ? 1 : 7) {
            std::vector<std::string> want;
            for (int i = lo; i < hi; ++i)
                want.push_back(std::to_string(i) + ".");
            std::sort(want.begin(), want.end());
            std::vector<std::string> got;
            forEachInPathOrder(lo, hi, [&](int i) {
                got.push_back(std::to_string(i) + ".");
            });
            ASSERT_EQ(got, want) << "lo=" << lo << " hi=" << hi;
        }
    }
}

TEST(MetricPath, JoinsPrefixAndParts)
{
    MetricPath path("switch0.merge");
    EXPECT_EQ(path("loadReqs"), "switch0.merge.loadReqs");
    EXPECT_EQ(path("port", 12, ".peakBytes"),
              "switch0.merge.port12.peakBytes");
    EXPECT_EQ(path("port", std::size_t{0}), "switch0.merge.port0");
    MetricPath top("");
    EXPECT_EQ(top("gpu", 7), "gpu7");
}

struct TestProbe : public Probe
{
    Counter hits;

    void
    registerMetrics(MetricRegistry &reg,
                    const std::string &prefix) const override
    {
        reg.addCounter(prefix + ".hits", &hits);
    }
};

TEST(Probe, SelfRegistersUnderPrefix)
{
    TestProbe p;
    p.hits.inc(3);
    MetricRegistry reg;
    p.registerMetrics(reg, "switch0.unit");
    EXPECT_EQ(reg.snapshot().find("switch0.unit.hits")->u64, 3u);
}

TEST(JsonWriter, RoundTripsThroughParser)
{
    JsonWriter w;
    w.beginObject()
        .field("name", "a \"quoted\"\nname")
        .field("count", std::uint64_t(18446744073709551615ull))
        .field("pi", 3.25)
        .field("neg", std::int64_t(-7))
        .field("on", true)
        .key("list")
        .beginArray()
        .value(1)
        .value(2)
        .endArray()
        .key("nothing")
        .null()
        .endObject();

    JsonValue v;
    std::string error;
    ASSERT_TRUE(jsonParse(w.str(), v, error)) << error;
    EXPECT_EQ(v.getString("name"), "a \"quoted\"\nname");
    EXPECT_DOUBLE_EQ(v.getNumber("pi"), 3.25);
    EXPECT_DOUBLE_EQ(v.getNumber("neg"), -7.0);
    ASSERT_NE(v.find("on"), nullptr);
    EXPECT_TRUE(v.find("on")->boolVal);
    ASSERT_NE(v.find("list"), nullptr);
    ASSERT_EQ(v.find("list")->elems.size(), 2u);
    EXPECT_DOUBLE_EQ(v.find("list")->elems[1].numVal, 2.0);
    EXPECT_TRUE(v.find("nothing")->isNull());
}

TEST(JsonWriter, NonFiniteDoublesBecomeZero)
{
    JsonWriter w;
    w.beginObject()
        .field("inf", std::numeric_limits<double>::infinity())
        .field("nan", std::numeric_limits<double>::quiet_NaN())
        .endObject();
    JsonValue v;
    std::string error;
    ASSERT_TRUE(jsonParse(w.str(), v, error)) << error;
    EXPECT_DOUBLE_EQ(v.getNumber("inf"), 0.0);
    EXPECT_DOUBLE_EQ(v.getNumber("nan"), 0.0);
}

TEST(JsonParse, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(jsonParse("{\"a\": }", v, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(jsonParse("", v, error));
    EXPECT_FALSE(jsonParse("{\"a\": 1} trailing", v, error));
}

TEST(MetricSnapshot, WriteJsonIsParseable)
{
    MetricRegistry reg;
    Counter c;
    c.inc(7);
    Histogram h(0.0, 10.0, 10);
    h.sample(2.0);
    h.sample(8.0);
    reg.addCounter("sw0.pkts", &c);
    reg.addHistogram("sw0.stagger", &h);

    JsonWriter w;
    reg.snapshot().writeJson(w);
    JsonValue v;
    std::string error;
    ASSERT_TRUE(jsonParse(w.str(), v, error)) << error;
    const JsonValue *pkts = v.find("sw0.pkts");
    ASSERT_NE(pkts, nullptr);
    EXPECT_EQ(pkts->getString("kind"), "counter");
    EXPECT_DOUBLE_EQ(pkts->getNumber("value"), 7.0);
    const JsonValue *stagger = v.find("sw0.stagger");
    ASSERT_NE(stagger, nullptr);
    EXPECT_EQ(stagger->getString("kind"), "histogram");
    EXPECT_DOUBLE_EQ(stagger->getNumber("count"), 2.0);
}

/** A small but complete report document for the renderer tests. */
std::string
makeReport(std::uint64_t seed, std::uint64_t loadReqs)
{
    RunConfig cfg;
    cfg.seed = seed;
    RunResult r;
    r.strategy = "CAIS";
    r.workload = "L1";
    r.makespan = 1000 + seed;
    r.eventsExecuted = 5000;
    KernelTiming k;
    k.name = "ag_gemm";
    k.start = 0;
    k.finish = 900;
    k.comm = true;
    r.kernels.push_back(k);

    // The registry stores non-owning readers, but snapshot() copies
    // the values out, so the counter only needs to outlive that call.
    MetricRegistry reg;
    Counter c;
    c.inc(loadReqs);
    reg.addCounter("switch0.merge.loadReqs", &c);
    return renderMetricsReport(cfg, r, reg.snapshot());
}

TEST(MetricsReport, RendersSchemaVersionedParseableJson)
{
    std::string text = makeReport(1, 10);
    JsonValue v;
    std::string error;
    ASSERT_TRUE(jsonParse(text, v, error)) << error;
    EXPECT_EQ(v.getString("schema"), metricsSchemaVersion);
    EXPECT_EQ(v.getString("strategy"), "CAIS");
    ASSERT_NE(v.find("config"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("config")->getNumber("seed"), 1.0);
    ASSERT_NE(v.find("result"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("result")->getNumber("makespan"), 1001.0);
    ASSERT_NE(v.find("metrics"), nullptr);
    ASSERT_NE(v.find("metrics")->find("switch0.merge.loadReqs"),
              nullptr);
    ASSERT_NE(v.find("kernels"), nullptr);
    ASSERT_EQ(v.find("kernels")->elems.size(), 1u);
    EXPECT_EQ(v.find("kernels")->elems[0].getString("name"),
              "ag_gemm");
}

TEST(CaisReport, LoadValidatesSchema)
{
    report::Report rep;
    std::string error;
    EXPECT_TRUE(report::load(makeReport(1, 10), "a.json", rep, error))
        << error;

    EXPECT_FALSE(report::load("{not json", "x", rep, error));
    EXPECT_FALSE(report::load("{\"schema\": \"other-v9\"}", "x", rep,
                              error));
    EXPECT_NE(error.find("schema"), std::string::npos);
    EXPECT_FALSE(report::load(
        "{\"schema\": \"cais-metrics-v1\"}", "x", rep, error));
    EXPECT_NE(error.find("result"), std::string::npos);
}

TEST(CaisReport, LoadFileRejectsMissingMalformedAndDirectoryPaths)
{
    namespace fs = std::filesystem;
    report::Report rep;
    std::string error;

    EXPECT_FALSE(
        report::loadFile("/nonexistent/run.json", rep, error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);

    fs::path dir =
        fs::temp_directory_path() / "cais_report_loadfile_test";
    fs::create_directories(dir);

    // A directory opens fine with fopen() but cannot be read; the
    // error must say so rather than report a JSON parse failure.
    error.clear();
    EXPECT_FALSE(report::loadFile(dir.string(), rep, error));
    EXPECT_NE(error.find("cannot read"), std::string::npos);

    fs::path bad = dir / "bad.json";
    std::ofstream(bad) << "{\"schema\": \"cais-metrics-v1\", ";
    error.clear();
    EXPECT_FALSE(report::loadFile(bad.string(), rep, error));
    EXPECT_FALSE(error.empty());

    fs::path good = dir / "good.json";
    std::ofstream(good) << makeReport(1, 10);
    error.clear();
    EXPECT_TRUE(report::loadFile(good.string(), rep, error)) << error;
    EXPECT_EQ(rep.path, good.string());

    fs::remove_all(dir);
}

TEST(CaisReport, SummaryListsResultScalars)
{
    report::Report rep;
    std::string error;
    ASSERT_TRUE(report::load(makeReport(1, 10), "a.json", rep, error));
    std::string s = report::summary(rep);
    EXPECT_NE(s.find("makespan"), std::string::npos);
    EXPECT_NE(s.find("1001"), std::string::npos);
    EXPECT_NE(s.find("CAIS"), std::string::npos);
}

TEST(CaisReport, DiffShowsPercentDeltas)
{
    report::Report a, b;
    std::string error;
    ASSERT_TRUE(report::load(makeReport(1, 10), "a.json", a, error));
    ASSERT_TRUE(report::load(makeReport(101, 15), "b.json", b, error));
    std::string d = report::diff(a, b);
    // makespan 1001 -> 1101 is +9.99%; the merge counter moved too.
    EXPECT_NE(d.find("makespan"), std::string::npos);
    EXPECT_NE(d.find("+9.99%"), std::string::npos);
    EXPECT_NE(d.find("switch0.merge.loadReqs"), std::string::npos);
}

TEST(MetricRegistry, HistogramSnapshotCarriesTailPercentiles)
{
    MetricRegistry reg;
    Histogram h(0.0, 1000.0, 1000);
    for (int i = 0; i < 1000; ++i)
        h.sample(static_cast<double>(i));
    reg.addHistogram("lat", &h);

    MetricSnapshot snap = reg.snapshot();
    const MetricValue *v = snap.find("lat");
    ASSERT_NE(v, nullptr);
    EXPECT_GT(v->p999, v->p99);
    EXPECT_GT(v->p99, v->p50);
    EXPECT_NEAR(v->p999, 999.0, 2.0);

    JsonWriter w;
    reg.snapshot().writeJson(w);
    EXPECT_NE(w.str().find("\"p999\""), std::string::npos);
}

TEST(MetricRegistry, ComputedTimeSeriesReadsAtSnapshotTime)
{
    MetricRegistry reg;
    std::vector<double> backing{1.0};
    reg.addTimeSeriesFn("fabric.utilSeries", 2000,
                        [&backing] { return backing; });
    backing.push_back(2.0); // must be visible: reader, not a copy

    MetricSnapshot snap = reg.snapshot();
    const MetricValue *v = snap.find("fabric.utilSeries");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, MetricKind::timeSeries);
    EXPECT_EQ(v->binWidth, 2000u);
    ASSERT_EQ(v->bins.size(), 2u);
    EXPECT_DOUBLE_EQ(v->bins[1], 2.0);
}

/** makeReport() plus a histogram and an extra counter under a
 *  caller-chosen path, for the percentile / added-removed views. */
std::string
makeReportWith(std::uint64_t seed, const std::string &extra_path)
{
    RunConfig cfg;
    cfg.seed = seed;
    RunResult r;
    r.strategy = "CAIS";
    r.workload = "L1";
    r.makespan = 1000 + seed;

    MetricRegistry reg;
    Counter c;
    c.inc(seed);
    reg.addCounter(extra_path, &c);
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i % 50) + (seed == 1 ? 0 : 25));
    reg.addHistogram("switch0.merge.stagger", &h);
    return renderMetricsReport(cfg, r, reg.snapshot());
}

TEST(CaisReport, SummaryRendersHistogramPercentiles)
{
    report::Report rep;
    std::string error;
    ASSERT_TRUE(report::load(makeReportWith(1, "a.only"), "a.json",
                             rep, error));
    std::string s = report::summary(rep);
    EXPECT_NE(s.find("p999"), std::string::npos);
    EXPECT_NE(s.find("switch0.merge.stagger"), std::string::npos);
}

TEST(CaisReport, DiffRendersPercentilesAndAddedRemovedPaths)
{
    report::Report a, b;
    std::string error;
    ASSERT_TRUE(report::load(makeReportWith(1, "a.only"), "a.json", a,
                             error));
    ASSERT_TRUE(report::load(makeReportWith(2, "b.only"), "b.json", b,
                             error));
    std::string d = report::diff(a, b);
    // Histogram percentile shift is rendered...
    EXPECT_NE(d.find("p999 A -> B"), std::string::npos);
    EXPECT_NE(d.find("switch0.merge.stagger"), std::string::npos);
    // ...and paths present in only one report are called out rather
    // than silently skipped.
    EXPECT_NE(d.find("only in A"), std::string::npos);
    EXPECT_NE(d.find("- a.only"), std::string::npos);
    EXPECT_NE(d.find("only in B"), std::string::npos);
    EXPECT_NE(d.find("+ b.only"), std::string::npos);
}

// --- Flat registry: parity with an ordered map -----------------------

/** Dotted paths shaped like a fabric's, with prefix-of-each-other
 *  and digit-ordering cases ("port10" sorts before "port2"). */
std::vector<std::string>
fabricShapedPaths()
{
    std::vector<std::string> out = {"a", "a.b", "ab", "a.b.c", "b",
                                    "eventq.executed"};
    for (int sw = 0; sw < 3; ++sw) {
        const std::string sp = "leaf" + std::to_string(sw) + ".sw0";
        for (const char *m : {".merge.loadReqs", ".merge.redReqs",
                              ".merge.stagger", ".chip.forwarded"})
            out.push_back(sp + m);
        for (int port = 0; port < 12; ++port) {
            const std::string pp =
                sp + ".merge.port" + std::to_string(port);
            out.push_back(pp + ".peakBytes");
            out.push_back(pp + ".peakEntries");
        }
    }
    for (int g = 0; g < 11; ++g)
        out.push_back("gpu" + std::to_string(g) + ".hbm.bytes");
    for (int l = 0; l < 20; ++l)
        out.push_back("link." + std::to_string(l) + ".wireBytes");
    return out;
}

TEST(MetricRegistry, FlatLayoutMatchesOrderedMap)
{
    const std::vector<std::string> paths = fabricShapedPaths();
    // Values are distinct so a misplaced reading shows.
    std::vector<Counter> counters(paths.size());
    std::map<std::string, const Counter *> model;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        counters[i].inc(7 * i + 1);
        model[paths[i]] = &counters[i];
    }
    const std::vector<std::string> patterns = {
        "*", "leaf*.merge.loadReqs", "*.peakBytes", "link.*.wireBytes",
        "a*", "gpu1*.hbm.bytes", "nothing.*", "a.b", "*.merge.port1*"};

    // Added in the map's (byte) order; every third path is a counter,
    // the rest exact-integer gauges.
    MetricRegistry reg;
    std::size_t n = 0;
    for (const auto &[path, c] : model) {
        if (n++ % 3 == 0)
            reg.addCounter(path, c);
        else
            reg.addGaugeU64(path, [c] { return c->value(); });
    }
    ASSERT_EQ(reg.size(), model.size());

    const MetricSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.size(), model.size());
    std::size_t i = 0;
    for (const auto &[path, c] : model) {
        EXPECT_EQ(snap.path(i), path);
        EXPECT_EQ(integerReading(snap.value(i)), c->value());
        ASSERT_NE(snap.find(path), nullptr) << path;
        EXPECT_EQ(snap.find(path), &snap.value(i));
        ++i;
    }
    for (const char *missing : {"", "a.", "leaf0", "zzz", "link.1"})
        EXPECT_EQ(snap.find(missing), nullptr) << missing;

    for (const std::string &pat : patterns) {
        SCOPED_TRACE(pat);
        std::uint64_t sum = 0, best = 0;
        std::vector<std::string> visited;
        for (const auto &[path, c] : model)
            if (MetricSnapshot::matches(pat, path)) {
                sum += c->value();
                best = std::max(best, c->value());
                visited.push_back(path);
            }
        EXPECT_EQ(snap.sumU64(pat), sum);
        EXPECT_EQ(snap.maxU64(pat), best);
        std::vector<std::string> seen;
        snap.forEach(pat, [&](const std::string &path,
                              const MetricValue &v) {
            EXPECT_EQ(integerReading(v), model.at(path)->value());
            seen.push_back(path);
        });
        EXPECT_EQ(seen, visited);
    }
}

TEST(MetricSnapshot, WriteJsonListsEveryKindInPathOrder)
{
    Counter c;
    c.inc(5);
    Histogram h(0.0, 10.0, 10);
    h.sample(3.0);

    // One metric of every kind under each prefix, leaves in byte
    // order; "switch1." sorts before "switch10." ('.' < '0').
    MetricRegistry reg;
    for (const char *prefix : {"fabric", "gpu0", "link.3", "switch1",
                               "switch10", "switch2"}) {
        MetricPath path(prefix);
        reg.addCounter(path("count"), &c);
        reg.addTimeSeriesFn(path("fn"), 50, [] {
            return std::vector<double>{1.0, 0.5};
        });
        reg.addHistogram(path("hist"), &h);
        reg.addGaugeU64(path("peak"), [] { return std::uint64_t(9); });
    }

    JsonWriter w;
    reg.snapshot().writeJson(w);
    const std::string json = w.str();
    // Keys come out in path order.
    EXPECT_LT(json.find("\"fabric.peak\""), json.find("\"gpu0.count\""));
    EXPECT_LT(json.find("\"switch1.peak\""),
              json.find("\"switch10.count\""));
    EXPECT_LT(json.find("\"switch10.peak\""),
              json.find("\"switch2.count\""));

    JsonValue v;
    std::string error;
    ASSERT_TRUE(jsonParse(json, v, error)) << error;
    const JsonValue *count = v.find("switch10.count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->getString("kind"), "counter");
    EXPECT_DOUBLE_EQ(count->getNumber("value"), 5.0);
    const JsonValue *fn = v.find("switch10.fn");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->getString("kind"), "timeseries");
    EXPECT_DOUBLE_EQ(fn->getNumber("binWidth"), 50.0);
    ASSERT_NE(fn->find("bins"), nullptr);
    ASSERT_EQ(fn->find("bins")->elems.size(), 2u);
    EXPECT_DOUBLE_EQ(fn->find("bins")->elems[1].numVal, 0.5);
    const JsonValue *hist = v.find("switch10.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->getString("kind"), "histogram");
    EXPECT_DOUBLE_EQ(hist->getNumber("count"), 1.0);
    EXPECT_DOUBLE_EQ(hist->getNumber("mean"), 3.0);
    const JsonValue *peak = v.find("switch10.peak");
    ASSERT_NE(peak, nullptr);
    EXPECT_EQ(peak->getString("kind"), "gaugeU64");
    EXPECT_DOUBLE_EQ(peak->getNumber("value"), 9.0);
}

TEST(MetricRegistry, AddAfterSnapshotLeavesThatSnapshotIntact)
{
    Counter c1, c2, c3;
    c1.inc(1);
    c2.inc(2);
    c3.inc(3);
    auto reg = std::make_unique<MetricRegistry>();
    reg->addCounter("a", &c1);
    reg->addCounter("m", &c2);
    const MetricSnapshot before = reg->snapshot();

    // The add copies the path table the snapshot still reads.
    reg->addCounter("z", &c3);
    EXPECT_DEATH(reg->addCounter("z", &c1), "duplicate metric path");
    const MetricSnapshot after = reg->snapshot();
    reg.reset(); // snapshots share the path table, not the registry

    ASSERT_EQ(before.size(), 2u);
    EXPECT_EQ(before.path(0), "a");
    EXPECT_EQ(before.path(1), "m");
    EXPECT_EQ(before.find("z"), nullptr);
    ASSERT_EQ(after.size(), 3u);
    EXPECT_EQ(after.path(2), "z");
    EXPECT_EQ(after.find("a")->u64, 1u);
    EXPECT_EQ(after.find("z")->u64, 3u);
}

} // namespace
