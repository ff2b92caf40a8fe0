/**
 * @file
 * Reference scheduler for the event-core tests: every event keyed by
 * (when, insertion seq) in one ordered map, popped from the front. It
 * shares no code with EventQueue, so agreement with it checks the
 * bucket ring, the far heap and the hand-over between them against
 * the total order they must implement.
 */

#ifndef CAIS_TESTS_SORTED_EVENT_MODEL_HH
#define CAIS_TESTS_SORTED_EVENT_MODEL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/types.hh"

namespace cais::test
{

class SortedEventModel
{
  public:
    using Callback = std::function<void()>;

    Cycle now() const { return curTick; }

    void
    schedule(Cycle when, Callback cb)
    {
        pending.emplace(std::make_pair(when, nextSeq++), std::move(cb));
    }

    void
    scheduleAfter(Cycle delta, Callback cb)
    {
        schedule(curTick + delta, std::move(cb));
    }

    void
    runAll()
    {
        while (!pending.empty()) {
            auto it = pending.begin();
            curTick = it->first.first;
            Callback cb = std::move(it->second);
            pending.erase(it);
            cb();
        }
    }

  private:
    std::map<std::pair<Cycle, std::uint64_t>, Callback> pending;
    Cycle curTick = 0;
    std::uint64_t nextSeq = 0;
};

} // namespace cais::test

#endif // CAIS_TESTS_SORTED_EVENT_MODEL_HH
