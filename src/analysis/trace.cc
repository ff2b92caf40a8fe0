#include "analysis/trace.hh"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "common/json.hh"

namespace cais
{

void
TraceCollector::addSpan(const std::string &name,
                        const std::string &category, int pid, int tid,
                        Cycle start, Cycle end)
{
    Event e;
    e.phase = 'X';
    e.name = name;
    e.category = category;
    e.pid = pid;
    e.tid = tid;
    e.ts = start;
    e.dur = end > start ? end - start : 0;
    e.value = 0.0;
    events.push_back(std::move(e));
}

void
TraceCollector::addInstant(const std::string &name,
                           const std::string &category, int pid,
                           int tid, Cycle at)
{
    Event e;
    e.phase = 'i';
    e.name = name;
    e.category = category;
    e.pid = pid;
    e.tid = tid;
    e.ts = at;
    e.dur = 0;
    e.value = 0.0;
    events.push_back(std::move(e));
}

void
TraceCollector::addCounter(const std::string &name, int pid, Cycle at,
                           double value)
{
    Event e;
    e.phase = 'C';
    e.name = name;
    e.category = "counter";
    e.pid = pid;
    e.tid = 0;
    e.ts = at;
    e.dur = 0;
    e.value = value;
    events.push_back(std::move(e));
}

void
TraceCollector::nameLane(int pid, int tid, const std::string &name)
{
    Event e;
    e.phase = 'M';
    e.name = "thread_name";
    e.pid = pid;
    e.tid = tid;
    e.ts = 0;
    e.dur = 0;
    e.value = 0.0;
    e.metaValue = name;
    events.push_back(std::move(e));
}

void
TraceCollector::nameProcess(int pid, const std::string &name)
{
    Event e;
    e.phase = 'M';
    e.name = "process_name";
    e.pid = pid;
    e.tid = 0;
    e.ts = 0;
    e.dur = 0;
    e.value = 0.0;
    e.metaValue = name;
    events.push_back(std::move(e));
}

std::string
TraceCollector::toJson() const
{
    // Canonical order: sorting on the full event value makes the
    // rendered trace a function of the simulated behaviour alone.
    std::vector<Event> sorted = events;
    auto key = [](const Event &e) {
        return std::tie(e.ts, e.pid, e.tid, e.phase, e.category,
                        e.name, e.dur, e.value, e.metaValue);
    };
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&key](const Event &a, const Event &b) {
        return key(a) < key(b);
    });

    // Trace-event time is microseconds; simulation cycles are ns.
    JsonWriter w;
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents").beginArray();
    for (const Event &e : sorted) {
        w.beginObject();
        w.field("ph", std::string(1, e.phase));
        w.field("pid", e.pid).field("tid", e.tid);
        w.field("ts", static_cast<double>(e.ts) / 1000.0);
        switch (e.phase) {
          case 'X':
            w.field("dur", static_cast<double>(e.dur) / 1000.0);
            w.field("name", e.name).field("cat", e.category);
            break;
          case 'i':
            w.field("s", "t");
            w.field("name", e.name).field("cat", e.category);
            break;
          case 'C':
            w.field("name", e.name);
            w.key("args").beginObject()
                .field("value", e.value).endObject();
            break;
          case 'M':
            w.field("name", e.name);
            w.key("args").beginObject()
                .field("name", e.metaValue).endObject();
            break;
          default:
            break;
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
TraceCollector::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string json = toJson();
    std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return n == json.size();
}

} // namespace cais
