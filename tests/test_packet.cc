/**
 * @file
 * Packet layout tests: the 16-bit node and count fields of the
 * 64-byte Packet hold every value the front door
 * (RunConfig::validationError, FabricParams::validationError) lets
 * through. Together with the static_asserts in noc/packet.hh this
 * keeps the narrowing from drifting away from the front-door bound.
 */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "common/nodemask.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "runtime/simulation_driver.hh"

using namespace cais;

namespace
{

/** Largest node id of a fabric: GPUs come first, then switches. */
int
largestNodeId(const FabricParams &fp)
{
    EventQueue eq;
    Fabric fab(eq, fp);
    return fab.switchNodeId(fp.numSwitches - 1);
}

/** Store @p node in every node field and read it back. */
void
expectNodeRoundTrips(int node, const std::string &what)
{
    Packet p;
    p.src = static_cast<PacketNode>(node);
    p.dst = static_cast<PacketNode>(node);
    p.issuerGpu = static_cast<PacketNode>(node);
    EXPECT_EQ(p.src, node) << what;
    EXPECT_EQ(p.dst, node) << what;
    EXPECT_EQ(p.issuerGpu, node) << what;
}

} // namespace

TEST(PacketLayout, LargestPresetNodeIdsRoundTrip)
{
    for (const std::string &name : FabricParams::presetNames()) {
        FabricParams fp = FabricParams::preset(name);
        int node = largestNodeId(fp);
        EXPECT_EQ(node, fp.numGpus + fp.numSwitches - 1) << name;
        EXPECT_LT(node, NodeMask::capacity) << name;
        expectNodeRoundTrips(node, name);
    }
}

TEST(PacketLayout, LargestFlatFabricNodeIdRoundTrips)
{
    // The front door's largest flat fabric: maxFabricGpus GPUs plus
    // as many switches as the participant masks leave room for.
    RunConfig cfg;
    cfg.numGpus = maxFabricGpus;
    cfg.numSwitches = NodeMask::capacity - maxFabricGpus;
    ASSERT_EQ(cfg.validationError(), "");

    int node = largestNodeId(cfg.toSystemConfig(StrategySpec{}).fabric);
    EXPECT_EQ(node, NodeMask::capacity - 1);
    expectNodeRoundTrips(node, "flat 120-GPU fabric");

    // One more GPU or switch is rejected before any packet exists.
    RunConfig more_gpus = cfg;
    more_gpus.numGpus = maxFabricGpus + 1;
    more_gpus.numSwitches = 1;
    EXPECT_NE(more_gpus.validationError(), "");
    RunConfig more_switches = cfg;
    ++more_switches.numSwitches;
    EXPECT_NE(more_switches.validationError(), "");
}

TEST(PacketLayout, LargestCountsAndPaddingRoundTrip)
{
    // Contribution counts never exceed the GPU count.
    Packet p;
    p.expected = static_cast<std::int16_t>(maxFabricGpus);
    p.contribs = static_cast<std::int16_t>(maxFabricGpus);
    EXPECT_EQ(p.expected, maxFabricGpus);
    EXPECT_EQ(p.contribs, maxFabricGpus);

    // chunkBytes has no upper bound, so padBytes stays 32-bit: a
    // padded 65536-byte chunk carries 32768 bytes of protocol pad.
    constexpr std::uint32_t chunk = 65536;
    RunConfig cfg;
    cfg.gpu.chunkBytes = chunk;
    ASSERT_EQ(cfg.validationError(), "");
    p.payloadBytes = chunk;
    p.reqBytes = chunk;
    p.padBytes = chunk / protocolPadDivisor;
    EXPECT_EQ(p.padBytes, 32768u);
    EXPECT_EQ(p.wireBytes(), chunk + 32768u + packetHeaderBytes);
}
