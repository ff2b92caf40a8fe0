/**
 * @file
 * The one receiver of thread-block lifecycle notifications. A tile
 * tracker, the synchronizer and the TB scheduler park a TB by its
 * record id and hand the id back here when the wait ends; a running
 * TbRun reports its output tile and retirement the same way. System
 * implements it (DESIGN.md §6i).
 */

#ifndef CAIS_GPU_TB_LISTENER_HH
#define CAIS_GPU_TB_LISTENER_HH

#include <cstdint>

#include "common/types.hh"

namespace cais
{

/** Dense id of one (kernel, GPU, TB) record, assigned by System. */
using TbRecId = std::uint32_t;

/** Thread-block lifecycle sink; every call is synchronous. */
class TbListener
{
  public:
    virtual ~TbListener() = default;

    /** One tile @p rec waited for is ready (once per wait). */
    virtual void onTileReady(TbRecId rec) = 0;
    /** The tracker kernel @p k produces is complete. */
    virtual void onTrackerComplete(KernelId k) = 0;
    /** The group sync @p rec registered for was released. */
    virtual void onSyncReleased(TbRecId rec) = 0;
    /** The TB scheduler granted CTA slot @p slot to @p rec. */
    virtual void onSlotGranted(TbRecId rec, int slot) = 0;
    /** TB @p rec's output tile is locally available. */
    virtual void onTbProduced(TbRecId rec) = 0;
    /** TB @p rec retired; its TbRun is still on the call stack. */
    virtual void onTbFinished(TbRecId rec) = 0;
};

} // namespace cais

#endif // CAIS_GPU_TB_LISTENER_HH
