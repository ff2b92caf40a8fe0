#include "runtime/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

namespace cais
{

SweepJob
makeSweepJob(StrategySpec spec, OpGraph graph, RunConfig cfg,
             std::string workload)
{
    SweepJob j;
    j.spec = std::move(spec);
    j.graph = [g = std::move(graph)]() { return g; };
    j.cfg = std::move(cfg);
    j.workload = std::move(workload);
    return j;
}

int
SweepRunner::defaultThreads()
{
    if (const char *env = std::getenv("CAIS_JOBS")) {
        int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepRunner::SweepRunner(int threads)
    : nThreads(threads > 0 ? threads : defaultThreads())
{
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepJob> &jobs)
{
    std::vector<RunResult> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};

    auto worker = [&]() {
        for (;;) {
            if (failed.load(std::memory_order_acquire))
                return;
            std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            const SweepJob &j = jobs[i];
            try {
                results[i] =
                    runGraph(j.spec, j.graph(), j.cfg, j.workload);
            } catch (...) {
                errors[i] = std::current_exception();
                failed.store(true, std::memory_order_release);
            }
        }
    };

    std::size_t want = jobs.size() < static_cast<std::size_t>(nThreads)
                           ? jobs.size()
                           : static_cast<std::size_t>(nThreads);

    if (want <= 1) {
        // Serial reference path: no pool, same results bit-for-bit.
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(want);
        for (std::size_t t = 0; t < want; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    for (std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs)
{
    SweepRunner runner;
    return runner.run(jobs);
}

} // namespace cais
