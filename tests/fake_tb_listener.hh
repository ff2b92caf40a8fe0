/**
 * @file
 * Test double for TbListener: each notification forwards to a
 * replaceable hook (no-op by default), so a test of a tracker,
 * scheduler, synchronizer, hub or TbRun observes exactly the calls it
 * cares about without a System behind them.
 */

#ifndef CAIS_TESTS_FAKE_TB_LISTENER_HH
#define CAIS_TESTS_FAKE_TB_LISTENER_HH

#include <functional>

#include "gpu/tb_listener.hh"

namespace cais::test
{

struct FakeTbListener : TbListener
{
    std::function<void(TbRecId)> tileReady = [](TbRecId) {};
    std::function<void(KernelId)> trackerComplete = [](KernelId) {};
    std::function<void(TbRecId)> syncReleased = [](TbRecId) {};
    std::function<void(TbRecId, int)> slotGranted = [](TbRecId, int) {};
    std::function<void(TbRecId)> produced = [](TbRecId) {};
    std::function<void(TbRecId)> finished = [](TbRecId) {};

    void onTileReady(TbRecId rec) override { tileReady(rec); }
    void onTrackerComplete(KernelId k) override { trackerComplete(k); }
    void onSyncReleased(TbRecId rec) override { syncReleased(rec); }
    void onSlotGranted(TbRecId rec, int slot) override
    {
        slotGranted(rec, slot);
    }
    void onTbProduced(TbRecId rec) override { produced(rec); }
    void onTbFinished(TbRecId rec) override { finished(rec); }
};

} // namespace cais::test

#endif // CAIS_TESTS_FAKE_TB_LISTENER_HH
