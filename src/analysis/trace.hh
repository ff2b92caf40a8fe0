/**
 * @file
 * Chrome-trace (chrome://tracing / Perfetto) exporter for simulation
 * timelines: per-GPU kernel spans, switch merge activity instants,
 * and link-utilization counter tracks. Load the emitted JSON in
 * Perfetto to inspect how CAIS pipelines kernels where the baselines
 * serialize.
 */

#ifndef CAIS_ANALYSIS_TRACE_HH
#define CAIS_ANALYSIS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cais
{

/**
 * Collects trace events and renders Chrome trace-event JSON.
 * Rendering sorts events into a canonical (ts, pid, tid, ...) order,
 * so the output does not depend on recording order.
 */
class TraceCollector
{
  public:
    /**
     * Complete ("X") event: a span on a track.
     * @param pid process lane (0 = GPUs, 1 = fabric).
     * @param tid thread lane within the process (e.g. GPU id).
     */
    void addSpan(const std::string &name, const std::string &category,
                 int pid, int tid, Cycle start, Cycle end);

    /** Instant ("i") event. */
    void addInstant(const std::string &name,
                    const std::string &category, int pid, int tid,
                    Cycle at);

    /** Counter ("C") sample (e.g. link utilization percent). */
    void addCounter(const std::string &name, int pid, Cycle at,
                    double value);

    /** Label a (pid, tid) lane (thread_name metadata). */
    void nameLane(int pid, int tid, const std::string &name);

    /** Label a pid (process_name metadata). */
    void nameProcess(int pid, const std::string &name);

    std::size_t numEvents() const { return events.size(); }

    /** Render the whole trace as Chrome trace-event JSON. */
    std::string toJson() const;

    /** Write toJson() to @p path; returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct Event
    {
        char phase;            // 'X', 'i', 'C', 'M'
        std::string name;
        std::string category;
        int pid;
        int tid;
        Cycle ts;
        Cycle dur;             // X only
        double value;          // C only
        std::string metaValue; // M only
    };

    std::vector<Event> events;
};

} // namespace cais

#endif // CAIS_ANALYSIS_TRACE_HH
