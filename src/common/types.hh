/**
 * @file
 * Fundamental scalar types and unit conventions shared by every CAIS
 * module.
 *
 * Conventions:
 *  - One simulation cycle equals one nanosecond (1 GHz fabric clock).
 *  - Bandwidth is expressed in bytes per cycle (== GB/s numerically).
 *  - Addresses are byte addresses in a flat global address space; the
 *    upper bits encode the home GPU (see addrHomeGpu below).
 */

#ifndef CAIS_COMMON_TYPES_HH
#define CAIS_COMMON_TYPES_HH

#include <cstdint>

namespace cais
{

/** Simulation time in cycles; 1 cycle == 1 ns. */
using Cycle = std::uint64_t;

/** Byte address in the flat multi-GPU global address space. */
using Addr = std::uint64_t;

/** Identifier types. Negative values mean "invalid / not assigned". */
using GpuId = int;
using SwitchId = int;
using SmId = int;
using TbId = int;
using GroupId = int;
using KernelId = int;
using OpId = int;

/** Sentinel for unassigned identifiers. */
constexpr int invalidId = -1;

/** Cycles per microsecond under the 1 cycle == 1 ns convention. */
constexpr Cycle cyclesPerUs = 1000;

/** Cycles per millisecond. */
constexpr Cycle cyclesPerMs = 1000 * 1000;

/** Number of address bits reserved for the intra-GPU offset. */
constexpr int addrGpuShift = 40;

/**
 * Home GPU of a global address. Each GPU owns a 1 TiB window; the
 * window index is the GPU id.
 */
inline GpuId
addrHomeGpu(Addr a)
{
    return static_cast<GpuId>(a >> addrGpuShift);
}

/** Build a global address from a home GPU and a local byte offset. */
inline Addr
makeAddr(GpuId gpu, Addr offset)
{
    return (static_cast<Addr>(gpu) << addrGpuShift) | offset;
}

/** Local byte offset of a global address within its home GPU. */
inline Addr
addrOffset(Addr a)
{
    return a & ((Addr(1) << addrGpuShift) - 1);
}

} // namespace cais

#endif // CAIS_COMMON_TYPES_HH
