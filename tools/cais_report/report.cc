#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/log.hh"

namespace cais
{
namespace report
{

namespace
{

constexpr const char *schemaTag = "cais-metrics-v1";
constexpr const char *profileTag = "cais-profile-v1";

/** Render a number without trailing noise ("12" rather than "12.00"). */
std::string
num(double v)
{
    if (std::floor(v) == v && std::fabs(v) < 1e15)
        return strfmt("%.0f", v);
    return strfmt("%.4g", v);
}

std::string
pct(double a, double b)
{
    if (a == 0.0)
        return b == 0.0 ? "+0.00%" : "n/a";
    return strfmt("%+.2f%%", 100.0 * (b - a) / a);
}

/** Scalar reading of one metric-tree entry (counters/gauges: value;
 *  histograms: count). */
double
metricScalar(const JsonValue &entry)
{
    if (entry.getString("kind") == "histogram")
        return entry.getNumber("count");
    return entry.getNumber("value");
}

} // namespace

bool
load(const std::string &text, const std::string &path, Report &out,
     std::string &error)
{
    if (!jsonParse(text, out.doc, error))
        return false;
    if (!out.doc.isObject()) {
        error = "top-level value is not an object";
        return false;
    }
    std::string schema = out.doc.getString("schema");
    if (schema != schemaTag && schema != profileTag) {
        error = "unsupported schema '" + schema + "' (expected " +
                schemaTag + " or " + profileTag + ")";
        return false;
    }
    if (schema == schemaTag) {
        const JsonValue *result = out.doc.find("result");
        if (!result || !result->isObject()) {
            error = "missing result section";
            return false;
        }
    }
    out.path = path;
    out.schema = schema;
    return true;
}

bool
loadFile(const std::string &path, Report &out, std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open " + path;
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    // fopen() happily opens directories; fread() then fails with
    // EISDIR and an empty buffer, which would otherwise surface as a
    // confusing "offset 0: unexpected end of input" parse error.
    bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        error = "cannot read " + path;
        return false;
    }
    return load(text, path, out, error);
}

std::string
summary(const Report &r)
{
    std::ostringstream os;
    os << "report: " << r.path << "\n";
    os << "strategy: " << r.doc.getString("strategy", "?")
       << "  workload: " << r.doc.getString("workload", "?") << "\n";
    if (const JsonValue *cfg = r.doc.find("config"))
        os << strfmt("config: %d GPUs x %d switches, seed %s\n",
                     static_cast<int>(cfg->getNumber("numGpus")),
                     static_cast<int>(cfg->getNumber("numSwitches")),
                     num(cfg->getNumber("seed")).c_str());

    const JsonValue *result = r.doc.find("result");
    os << "\n  " << strfmt("%-24s %16s", "metric", "value") << "\n";
    for (const auto &[key, v] : result->members) {
        if (!v.isNumber())
            continue;
        os << "  "
           << strfmt("%-24s %16s", key.c_str(), num(v.numVal).c_str())
           << "\n";
    }

    // Histogram latencies: the percentile summary is the part of the
    // metric tree that a makespan-level diff cannot capture.
    if (const JsonValue *m = r.doc.find("metrics")) {
        bool header = false;
        for (const auto &[path, entry] : m->members) {
            if (!entry.isObject() ||
                entry.getString("kind") != "histogram" ||
                entry.getNumber("count") == 0.0)
                continue;
            if (!header) {
                os << "\n  "
                   << strfmt("%-40s %10s %10s %10s %10s", "histogram",
                             "count", "p50", "p99", "p999")
                   << "\n";
                header = true;
            }
            os << "  "
               << strfmt("%-40s %10s %10s %10s %10s", path.c_str(),
                         num(entry.getNumber("count")).c_str(),
                         num(entry.getNumber("p50")).c_str(),
                         num(entry.getNumber("p99")).c_str(),
                         num(entry.getNumber("p999")).c_str())
               << "\n";
        }
    }

    if (const JsonValue *m = r.doc.find("metrics"))
        os << "\nmetric tree: " << m->members.size() << " paths\n";
    if (const JsonValue *k = r.doc.find("kernels"))
        os << "kernels: " << k->elems.size() << "\n";
    return os.str();
}

std::string
diff(const Report &a, const Report &b)
{
    std::ostringstream os;
    os << "A: " << a.path << " (" << a.doc.getString("strategy", "?")
       << ")\n";
    os << "B: " << b.path << " (" << b.doc.getString("strategy", "?")
       << ")\n";

    const JsonValue *ra = a.doc.find("result");
    const JsonValue *rb = b.doc.find("result");
    os << "\n  "
       << strfmt("%-24s %16s %16s %10s", "metric", "A", "B", "delta")
       << "\n";
    for (const auto &[key, va] : ra->members) {
        if (!va.isNumber())
            continue;
        const JsonValue *vb = rb->find(key);
        if (!vb || !vb->isNumber())
            continue;
        os << "  "
           << strfmt("%-24s %16s %16s %10s", key.c_str(),
                     num(va.numVal).c_str(), num(vb->numVal).c_str(),
                     pct(va.numVal, vb->numVal).c_str())
           << "\n";
    }

    // Histogram percentile shifts between the two runs: tail movement
    // (p99/p999) is invisible in the scalar rows above.
    const JsonValue *ma = a.doc.find("metrics");
    const JsonValue *mb = b.doc.find("metrics");
    if (ma && mb && ma->isObject() && mb->isObject()) {
        bool header = false;
        for (const auto &[path, ea] : ma->members) {
            const JsonValue *eb = mb->find(path);
            if (!eb || !ea.isObject() || !eb->isObject() ||
                ea.getString("kind") != "histogram" ||
                eb->getString("kind") != "histogram")
                continue;
            if (ea.getNumber("count") == 0.0 &&
                eb->getNumber("count") == 0.0)
                continue;
            if (!header) {
                os << "\n  "
                   << strfmt("%-40s %22s %22s %22s", "histogram",
                             "p50 A -> B", "p99 A -> B",
                             "p999 A -> B")
                   << "\n";
                header = true;
            }
            auto cell = [&](const char *field) {
                return strfmt("%10s -> %-9s",
                              num(ea.getNumber(field)).c_str(),
                              num(eb->getNumber(field)).c_str());
            };
            os << "  "
               << strfmt("%-40s %22s %22s %22s", path.c_str(),
                         cell("p50").c_str(), cell("p99").c_str(),
                         cell("p999").c_str())
               << "\n";
        }
    }

    // Paths present in only one report are a schema change (a metric
    // was added or removed between the two builds) and must be called
    // out rather than silently skipped.
    if (ma && mb && ma->isObject() && mb->isObject()) {
        std::vector<std::string> only_a, only_b;
        for (const auto &m : ma->members)
            if (!mb->find(m.first))
                only_a.push_back(m.first);
        for (const auto &m : mb->members)
            if (!ma->find(m.first))
                only_b.push_back(m.first);
        if (!only_a.empty()) {
            os << "\nmetric paths only in A (removed in B):\n";
            for (const std::string &p : only_a)
                os << "  - " << p << "\n";
        }
        if (!only_b.empty()) {
            os << "\nmetric paths only in B (added since A):\n";
            for (const std::string &p : only_b)
                os << "  + " << p << "\n";
        }
    }

    // Headline metric-tree movers: the largest relative changes among
    // paths present in both reports.
    if (ma && mb && ma->isObject() && mb->isObject()) {
        struct Mover
        {
            std::string path;
            double va;
            double vb;
            double rel;
        };
        std::vector<Mover> movers;
        for (const auto &[path, ea] : ma->members) {
            const JsonValue *eb = mb->find(path);
            if (!eb || !ea.isObject() || !eb->isObject())
                continue;
            double va = metricScalar(ea);
            double vb = metricScalar(*eb);
            if (va == vb)
                continue;
            double base = std::max(std::fabs(va), 1.0);
            movers.push_back({path, va, vb,
                              std::fabs(vb - va) / base});
        }
        std::stable_sort(movers.begin(), movers.end(),
                         [](const Mover &x, const Mover &y) {
            return x.rel > y.rel;
        });
        if (!movers.empty()) {
            os << "\ntop metric-tree movers:\n";
            std::size_t shown = std::min<std::size_t>(movers.size(),
                                                      10);
            for (std::size_t i = 0; i < shown; ++i)
                os << "  "
                   << strfmt("%-40s %14s -> %-14s %10s",
                             movers[i].path.c_str(),
                             num(movers[i].va).c_str(),
                             num(movers[i].vb).c_str(),
                             pct(movers[i].va, movers[i].vb).c_str())
                   << "\n";
        }
    }
    return os.str();
}

namespace
{

/** Profile header lines shared by the attribution / path views. */
void
profileHeader(std::ostringstream &os, const Report &r)
{
    os << "profile: " << r.path << "\n";
    os << "strategy: " << r.doc.getString("strategy", "?")
       << "  workload: " << r.doc.getString("workload", "?") << "\n";
    os << strfmt("makespan: %s cycles  edges: %s  coverage: %.1f%%\n",
                 num(r.doc.getNumber("makespan")).c_str(),
                 num(r.doc.getNumber("edges")).c_str(),
                 100.0 * r.doc.getNumber("coverage"));
}

std::string
notAProfile(const Report &r)
{
    return "cais_report: " + r.path + " is a " + r.schema +
           " document; --attribution/--critical-path need a "
           "cais-profile-v1 profile (RunConfig.profilePath / "
           "--profile)\n";
}

/** attribution[] as an ordered (class -> cycles) list, zeros kept so
 *  two profiles always diff class-by-class. */
std::vector<std::pair<std::string, double>>
attributionRows(const Report &r)
{
    std::vector<std::pair<std::string, double>> rows;
    const JsonValue *attr = r.doc.find("attribution");
    if (!attr || !attr->isArray())
        return rows;
    for (const JsonValue &e : attr->elems)
        rows.emplace_back(e.getString("class", "?"),
                          e.getNumber("cycles"));
    return rows;
}

/** Total critical-path time per wait class (cycles). */
std::vector<std::pair<std::string, double>>
pathClassTotals(const Report &r)
{
    std::vector<std::pair<std::string, double>> rows;
    const JsonValue *path = r.doc.find("criticalPath");
    if (!path || !path->isArray())
        return rows;
    for (const JsonValue &s : path->elems) {
        std::string cls = s.getString("class", "?");
        double span = s.getNumber("end") - s.getNumber("start");
        auto it = std::find_if(rows.begin(), rows.end(),
                               [&](const auto &p) {
            return p.first == cls;
        });
        if (it == rows.end())
            rows.emplace_back(cls, span);
        else
            it->second += span;
    }
    return rows;
}

} // namespace

std::string
attribution(const Report &r)
{
    if (!r.isProfile())
        return notAProfile(r);
    std::ostringstream os;
    profileHeader(os, r);
    os << "\n  "
       << strfmt("%-18s %16s %8s", "class", "cycles", "share")
       << "\n";
    const JsonValue *attr = r.doc.find("attribution");
    if (attr && attr->isArray())
        for (const JsonValue &e : attr->elems) {
            double cycles = e.getNumber("cycles");
            if (cycles == 0.0)
                continue;
            os << "  "
               << strfmt("%-18s %16s %7.1f%%",
                         e.getString("class", "?").c_str(),
                         num(cycles).c_str(),
                         100.0 * e.getNumber("share"))
               << "\n";
        }
    return os.str();
}

std::string
attributionDiff(const Report &a, const Report &b)
{
    if (!a.isProfile())
        return notAProfile(a);
    if (!b.isProfile())
        return notAProfile(b);
    std::ostringstream os;
    os << "A: " << a.path << " (" << a.doc.getString("strategy", "?")
       << ")\n";
    os << "B: " << b.path << " (" << b.doc.getString("strategy", "?")
       << ")\n";
    os << strfmt("makespan: %s -> %s (%s)\n",
                 num(a.doc.getNumber("makespan")).c_str(),
                 num(b.doc.getNumber("makespan")).c_str(),
                 pct(a.doc.getNumber("makespan"),
                     b.doc.getNumber("makespan")).c_str());
    os << "\n  "
       << strfmt("%-18s %16s %16s %10s", "class", "A", "B", "delta")
       << "\n";
    auto ra = attributionRows(a);
    auto rb = attributionRows(b);
    // Both sides list every class in enum order (the writer emits
    // zeros too), so walk A and look classes up in B by name to stay
    // robust against future class additions.
    for (const auto &[cls, va] : ra) {
        double vb = 0.0;
        for (const auto &p : rb)
            if (p.first == cls) {
                vb = p.second;
                break;
            }
        if (va == 0.0 && vb == 0.0)
            continue;
        os << "  "
           << strfmt("%-18s %16s %16s %10s", cls.c_str(),
                     num(va).c_str(), num(vb).c_str(),
                     pct(va, vb).c_str())
           << "\n";
    }
    return os.str();
}

std::string
criticalPath(const Report &r)
{
    if (!r.isProfile())
        return notAProfile(r);
    std::ostringstream os;
    profileHeader(os, r);
    const JsonValue *path = r.doc.find("criticalPath");
    std::size_t segs =
        path && path->isArray() ? path->elems.size() : 0;
    os << "critical path: " << segs << " segments\n";
    os << "\n  "
       << strfmt("%-12s %12s %12s %-18s %s", "start", "end", "cycles",
                 "class", "node")
       << "\n";
    if (path && path->isArray())
        for (const JsonValue &s : path->elems) {
            double t0 = s.getNumber("start");
            double t1 = s.getNumber("end");
            os << "  "
               << strfmt("%-12s %12s %12s %-18s %s", num(t0).c_str(),
                         num(t1).c_str(), num(t1 - t0).c_str(),
                         s.getString("class", "?").c_str(),
                         s.getString("node", "?").c_str())
               << "\n";
        }
    return os.str();
}

std::string
criticalPathDiff(const Report &a, const Report &b)
{
    if (!a.isProfile())
        return notAProfile(a);
    if (!b.isProfile())
        return notAProfile(b);
    std::ostringstream os;
    os << "A: " << a.path << " (" << a.doc.getString("strategy", "?")
       << ")\n";
    os << "B: " << b.path << " (" << b.doc.getString("strategy", "?")
       << ")\n";
    os << strfmt("makespan: %s -> %s (%s)\n",
                 num(a.doc.getNumber("makespan")).c_str(),
                 num(b.doc.getNumber("makespan")).c_str(),
                 pct(a.doc.getNumber("makespan"),
                     b.doc.getNumber("makespan")).c_str());

    // Where did the critical path's time move? Per-class totals keep
    // the diff stable even though the two paths visit different
    // nodes.
    auto ra = pathClassTotals(a);
    auto rb = pathClassTotals(b);
    os << "\n  "
       << strfmt("%-18s %16s %16s %10s", "path time by class", "A",
                 "B", "delta")
       << "\n";
    std::vector<std::string> classes;
    for (const auto &p : ra)
        classes.push_back(p.first);
    for (const auto &p : rb)
        if (std::find(classes.begin(), classes.end(), p.first) ==
            classes.end())
            classes.push_back(p.first);
    for (const std::string &cls : classes) {
        double va = 0.0, vb = 0.0;
        for (const auto &p : ra)
            if (p.first == cls)
                va = p.second;
        for (const auto &p : rb)
            if (p.first == cls)
                vb = p.second;
        os << "  "
           << strfmt("%-18s %16s %16s %10s", cls.c_str(),
                     num(va).c_str(), num(vb).c_str(),
                     pct(va, vb).c_str())
           << "\n";
    }
    return os.str();
}

namespace
{

constexpr const char *boundClasses[] = {
    "smCompute", "hbm", "linkSerialization", "mergeService",
    "criticalPath",
};

std::string
notARunReport(const Report &r)
{
    return "cais_report: " + r.path + " is a " + r.schema +
           " document; --bound needs a cais-metrics-v1 run report "
           "with a bound section (RunConfig.metricsPath / "
           "--metrics)\n";
}

/** The bound section, or null when the report predates it. */
const JsonValue *
boundSection(const Report &r)
{
    const JsonValue *b = r.doc.find("bound");
    return b && b->isObject() ? b : nullptr;
}

std::string
ratioCell(double makespan, double bound_cycles)
{
    if (bound_cycles == 0.0)
        return "-";
    return strfmt("%.2f", makespan / bound_cycles);
}

} // namespace

std::string
bound(const Report &r)
{
    if (r.isProfile())
        return notARunReport(r);
    const JsonValue *b = boundSection(r);
    if (!b)
        return notARunReport(r);
    const JsonValue *result = r.doc.find("result");
    double makespan = result->getNumber("makespan");
    std::string binding = b->getString("binding");

    std::ostringstream os;
    os << "report: " << r.path << "\n";
    os << "strategy: " << r.doc.getString("strategy", "?")
       << "  workload: " << r.doc.getString("workload", "?") << "\n";
    os << strfmt("makespan: %s cycles  composite bound: %s  "
                 "sim/bound: %s\n",
                 num(makespan).c_str(),
                 num(b->getNumber("composite")).c_str(),
                 ratioCell(makespan,
                           b->getNumber("composite")).c_str());
    os << "\n  "
       << strfmt("%-18s %16s %10s", "resource", "bound", "sim/bound")
       << "\n";
    for (const char *cls : boundClasses) {
        double cyc = b->getNumber(cls);
        os << "  "
           << strfmt("%-18s %16s %10s%s", cls, num(cyc).c_str(),
                     ratioCell(makespan, cyc).c_str(),
                     binding == cls ? "  <- binding" : "")
           << "\n";
    }
    return os.str();
}

std::string
boundDiff(const Report &a, const Report &b)
{
    if (a.isProfile() || !boundSection(a))
        return notARunReport(a);
    if (b.isProfile() || !boundSection(b))
        return notARunReport(b);
    const JsonValue *ba = boundSection(a);
    const JsonValue *bb = boundSection(b);
    double ma = a.doc.find("result")->getNumber("makespan");
    double mb = b.doc.find("result")->getNumber("makespan");

    std::ostringstream os;
    os << "A: " << a.path << " (" << a.doc.getString("strategy", "?")
       << ")\n";
    os << "B: " << b.path << " (" << b.doc.getString("strategy", "?")
       << ")\n";
    os << strfmt("makespan: %s -> %s (%s)  binding: %s -> %s\n",
                 num(ma).c_str(), num(mb).c_str(),
                 pct(ma, mb).c_str(),
                 ba->getString("binding", "?").c_str(),
                 bb->getString("binding", "?").c_str());
    os << "\n  "
       << strfmt("%-18s %16s %16s %10s %10s %10s", "resource",
                 "bound A", "bound B", "delta", "ratio A", "ratio B")
       << "\n";
    for (const char *cls : boundClasses) {
        double va = ba->getNumber(cls);
        double vb = bb->getNumber(cls);
        if (va == 0.0 && vb == 0.0)
            continue;
        os << "  "
           << strfmt("%-18s %16s %16s %10s %10s %10s", cls,
                     num(va).c_str(), num(vb).c_str(),
                     pct(va, vb).c_str(), ratioCell(ma, va).c_str(),
                     ratioCell(mb, vb).c_str())
           << "\n";
    }
    return os.str();
}

} // namespace report
} // namespace cais
