#include "gpu/tb_scheduler.hh"

namespace cais
{

TbScheduler::TbScheduler(SmPool &pool_, TbListener *listener_)
    : pool(pool_), listener(listener_)
{
}

void
TbScheduler::enqueue(double from, double to, int priority, TbRecId rec)
{
    buckets[{priority, from, to}].push_back(rec);
    pump();
}

void
TbScheduler::pump()
{
    if (pumping)
        return; // slot grants may re-enter via enqueue
    pumping = true;
    bool progress = true;
    while (progress && pool.freeCount() > 0) {
        progress = false;
        // First pass: honor each bucket's SM partition, so kernels
        // co-scheduled by asymmetric overlapping keep their reserved
        // SMs while both have work.
        for (auto &[key, bucket] : buckets) {
            while (!bucket.empty()) {
                int slot = pool.acquire(std::get<1>(key),
                                        std::get<2>(key));
                if (slot < 0)
                    break;
                TbRecId rec = bucket.front();
                bucket.pop_front();
                dispatched.inc();
                progress = true;
                listener->onSlotGranted(rec, slot);
            }
        }
        // Second pass: work-conserving spill — leftover ready TBs may
        // use any free slot instead of idling the partner partition.
        for (auto &[key, bucket] : buckets) {
            (void)key;
            while (!bucket.empty()) {
                int slot = pool.acquire(0.0, 1.0);
                if (slot < 0)
                    break;
                TbRecId rec = bucket.front();
                bucket.pop_front();
                dispatched.inc();
                progress = true;
                listener->onSlotGranted(rec, slot);
            }
        }
    }
    pumping = false;
}

std::size_t
TbScheduler::pendingCount() const
{
    std::size_t n = 0;
    for (const auto &[key, bucket] : buckets)
        n += bucket.size();
    return n;
}

} // namespace cais
