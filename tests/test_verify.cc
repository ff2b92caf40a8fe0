/** @file Tests for the cais-verify static model checker (§6e). */

#include <gtest/gtest.h>

#include "analysis/verify.hh"
#include "common/json.hh"
#include "workload/transformer.hh"

using namespace cais;

namespace
{

SystemConfig
tinyConfig()
{
    SystemConfig c;
    c.fabric.numGpus = 4;
    c.fabric.numSwitches = 2;
    c.gpu.numSms = 8;
    c.gpu.jitterSigma = 0.0;
    c.gpu.maxStartSkew = 0;
    // Raw MergeParams defaults hold 40 KB / 4096 B = 10 entries per
    // port, below the throttle threshold of 16 — V4 (rightly) flags
    // that; use the shipped 320-entry sizing here.
    c.inswitch.merge.tableBytesPerPort =
        320ull * c.inswitch.merge.chunkBytes;
    return c;
}

/** A valid one-TB-per-GPU kernel skeleton. */
KernelDesc
emptyKernel(const std::string &name, int gpus)
{
    KernelDesc k;
    k.name = name;
    k.grids.resize(static_cast<std::size_t>(gpus));
    for (auto &grid : k.grids) {
        TbDesc tb;
        tb.computeCycles = 10;
        grid.push_back(tb);
    }
    return k;
}

bool
pathContains(const verify::Diagnostic &d, const std::string &what)
{
    for (const std::string &p : d.path)
        if (p.find(what) != std::string::npos)
            return true;
    return false;
}

} // namespace

// ---------------------------------------------------------------
// Clean configurations stay clean.
// ---------------------------------------------------------------

TEST(Verify, ShippedConfigsProduceZeroDiagnostics)
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    RunConfig cfg;
    for (const StrategySpec &spec : allStrategies()) {
        for (SubLayerId L : {SubLayerId::L1, SubLayerId::L3}) {
            OpGraph g = buildSubLayer(m, L);
            verify::VerifyResult r = verify::verifyRun(spec, g, cfg);
            EXPECT_TRUE(r.ok()) << spec.name << ": " << r.text();
            EXPECT_EQ(r.strategy, spec.name);
        }
    }
}

TEST(Verify, RuleTableListsAllNineRules)
{
    const auto &rules = verify::ruleTable();
    ASSERT_EQ(rules.size(), 9u);
    for (std::size_t i = 0; i < rules.size(); ++i) {
        EXPECT_EQ(rules[i].id, "V" + std::to_string(i + 1));
        EXPECT_NE(std::string(rules[i].hint), "");
    }
}

// ---------------------------------------------------------------
// V1: seeded channel-dependency cycle
// ---------------------------------------------------------------

TEST(Verify, V1CatchesInjectedVcCycle)
{
    System sys(tinyConfig());
    // A response handler that re-issues a request while holding the
    // response buffer closes request->response->request across the
    // switch: the classic protocol deadlock cycle.
    verify::Options o;
    o.extraCouplings.push_back(
        {true, VcClass::response, VcClass::request});
    verify::VerifyResult r = verify::verifySystem(sys, o);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V1");
    const auto &path = r.diagnostics[0].path;
    ASSERT_GE(path.size(), 3u);
    // The payload is the cycle itself: closed, and walking both VC
    // classes of the coupling loop.
    EXPECT_EQ(path.front(), path.back());
    EXPECT_TRUE(pathContains(r.diagnostics[0], "(request)"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "(response)"));
    EXPECT_NE(r.diagnostics[0].hint, "");
}

TEST(Verify, V1CleanOnBaselineProtocolAndUnifiedVc)
{
    SystemConfig c = tinyConfig();
    EXPECT_TRUE(verify::verifySystem(System(c)).ok());
    c.fabric.sw.unifiedDataVc = true; // CAIS-Partial collapse
    EXPECT_TRUE(verify::verifySystem(System(c)).ok());
}

TEST(Verify, V1SuppressionSkipsTheRule)
{
    System sys(tinyConfig());
    verify::Options o;
    o.extraCouplings.push_back(
        {true, VcClass::response, VcClass::request});
    o.suppress.insert("V1");
    EXPECT_TRUE(verify::verifySystem(sys, o).ok());
}

// ---------------------------------------------------------------
// V2: seeded credit mismatch
// ---------------------------------------------------------------

TEST(Verify, V2CatchesCreditBufferMismatch)
{
    SystemConfig c = tinyConfig();
    c.fabric.vcCredits = 8; // != sw.vcDepth (256)
    System sys(c);
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V2");
    EXPECT_TRUE(pathContains(r.diagnostics[0], "vcCredits=8"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "vcDepth=256"));
}

// ---------------------------------------------------------------
// V3: seeded two-switch address class / membership mismatch
// ---------------------------------------------------------------

TEST(Verify, V3CatchesChunkStraddlingInterleaveBlocks)
{
    SystemConfig c = tinyConfig();
    System sys(c);
    KernelDesc k = emptyKernel("red", sys.numGpus());
    for (auto &grid : k.grids) {
        RemoteOp op;
        op.kind = RemoteOpKind::caisRed;
        op.base = c.fabric.interleaveBytes / 2; // mid-block start
        op.bytes = c.gpu.chunkBytes;            // ...so it straddles
        op.expected = sys.numGpus();
        grid[0].pushOps.push_back(op);
    }
    sys.addKernel(std::move(k));
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V3");
    EXPECT_TRUE(pathContains(r.diagnostics[0], "addr=0x800"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "sw"));
}

TEST(Verify, V3CatchesParticipantMismatch)
{
    SystemConfig c = tinyConfig();
    System sys(c);
    KernelDesc k = emptyKernel("red", sys.numGpus());
    for (GpuId g = 0; g < sys.numGpus() - 1; ++g) { // one GPU short
        RemoteOp op;
        op.kind = RemoteOpKind::caisRed;
        op.base = 0;
        op.bytes = c.gpu.chunkBytes;
        op.expected = sys.numGpus();
        k.grids[static_cast<std::size_t>(g)][0].pushOps.push_back(op);
    }
    sys.addKernel(std::move(k));
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V3");
    EXPECT_TRUE(pathContains(r.diagnostics[0], "expected=4"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "issuers=3"));
}

// ---------------------------------------------------------------
// V4: seeded oversized TB group
// ---------------------------------------------------------------

TEST(Verify, V4CatchesOversizedTbGroup)
{
    System sys(tinyConfig());
    KernelDesc k = emptyKernel("sync", sys.numGpus());
    k.preLaunchSync = true;
    for (auto &grid : k.grids)
        grid[0].group = 0;
    TbDesc extra = k.grids[0][0]; // second group-0 TB on GPU 0
    k.grids[0].push_back(extra);
    sys.addKernel(std::move(k));
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V4");
    EXPECT_TRUE(pathContains(r.diagnostics[0], "group=0"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "tbs=2"));
}

TEST(Verify, V4CatchesGroupMissingAGpu)
{
    System sys(tinyConfig());
    KernelDesc k = emptyKernel("sync", sys.numGpus());
    k.preLaunchSync = true;
    for (GpuId g = 0; g < sys.numGpus() - 1; ++g)
        k.grids[static_cast<std::size_t>(g)][0].group = 0;
    sys.addKernel(std::move(k));
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V4");
    EXPECT_TRUE(pathContains(r.diagnostics[0], "missing gpu3"));
}

TEST(Verify, V4CatchesUnreachableThrottleThreshold)
{
    SystemConfig c = tinyConfig();
    // 8 entries per port < throttle threshold 16: the hint level can
    // never be reached, so throttling silently does nothing.
    c.inswitch.merge.tableBytesPerPort =
        8ull * c.inswitch.merge.chunkBytes;
    System sys(c);
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V4");
    EXPECT_TRUE(pathContains(r.diagnostics[0],
                             "throttleThreshold=16"));
    EXPECT_TRUE(pathContains(r.diagnostics[0],
                             "tableEntriesPerPort=8"));
}

// ---------------------------------------------------------------
// V5: seeded cyclic kernel graph / same-direction overlap
// ---------------------------------------------------------------

TEST(Verify, V5CatchesKernelDependencyCycle)
{
    System sys(tinyConfig());
    KernelId a = sys.addKernel(emptyKernel("gemm.a", sys.numGpus()));
    KernelDesc kb = emptyKernel("gemm.b", sys.numGpus());
    kb.kernelDeps.push_back(a);
    KernelId b = sys.addKernel(std::move(kb));
    sys.kernel(a).kernelDeps.push_back(b); // close the cycle
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V5");
    const auto &path = r.diagnostics[0].path;
    ASSERT_GE(path.size(), 3u);
    EXPECT_EQ(path.front(), path.back());
    EXPECT_TRUE(pathContains(r.diagnostics[0], "gemm.a"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "gemm.b"));
}

TEST(Verify, V5CatchesSameDirectionOverlapPair)
{
    SystemConfig c = tinyConfig();
    System sys(c);
    // Two unordered kernels on disjoint SM partitions that both pull:
    // the overlap stresses one link direction instead of both.
    for (int i = 0; i < 2; ++i) {
        KernelDesc k = emptyKernel(i ? "pull.hi" : "pull.lo",
                                   sys.numGpus());
        k.smFrom = i ? 0.5 : 0.0;
        k.smTo = i ? 1.0 : 0.5;
        for (auto &grid : k.grids) {
            RemoteOp op;
            op.kind = RemoteOpKind::caisLoad;
            op.base = static_cast<Addr>(i) * 1u << 20;
            op.bytes = c.gpu.chunkBytes;
            op.expected = sys.numGpus();
            grid[0].pullOps.push_back(op);
        }
        sys.addKernel(std::move(k));
    }
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V5");
    EXPECT_TRUE(pathContains(r.diagnostics[0], "pull.lo"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "pull.hi"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "pull"));

    // Ordering the pair legitimizes it.
    sys.kernel(1).kernelDeps.push_back(0);
    EXPECT_TRUE(verify::verifySystem(sys).ok());
}

// ---------------------------------------------------------------
// V6: cross-shard lookahead soundness
// ---------------------------------------------------------------

TEST(Verify, V6AndV7CleanOnEveryPreset)
{
    for (const std::string &name : FabricParams::presetNames()) {
        SystemConfig c = tinyConfig();
        c.fabric = FabricParams::preset(name);
        EXPECT_TRUE(verify::verifySystem(System(c)).ok()) << name;
    }
}

TEST(Verify, V6CleanWithFastTierLinks)
{
    // The tricky lookahead case: tier links faster than rail links
    // lower the window once some leaf lands off the spine shard.
    // V6's independent recomputation must agree with the declared
    // Fabric::crossShardLookahead on it.
    SystemConfig c = tinyConfig();
    c.fabric = FabricParams::preset("rail-optimized-2node");
    c.fabric.tierLinkLatency = 100;
    EXPECT_TRUE(verify::verifySystem(System(c)).ok());
}

TEST(Verify, V6CatchesMisDeclaredLookahead)
{
    System sys(tinyConfig());
    verify::Options o;
    o.v6LookaheadOverride = 1; // window faster than any link
    verify::VerifyResult r = verify::verifySystem(sys, o);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V6");
    // The violating link is reported as a concrete path: shard
    // count, link name, endpoint node ids, both latencies.
    EXPECT_TRUE(pathContains(r.diagnostics[0], "shards=2"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "node"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "latency=250"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "declared=1"));
    EXPECT_NE(r.diagnostics[0].hint, "");
}

// ---------------------------------------------------------------
// V7: shard-domain closure
// ---------------------------------------------------------------

TEST(Verify, V7CatchesSwitchMappedToHostShard)
{
    System sys(tinyConfig());
    verify::Options o;
    o.v7DomainOverrideSwitch = 1;
    o.v7DomainOverrideShard = 0; // claim switch 1 lives with the host
    verify::VerifyResult r = verify::verifySystem(sys, o);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V7");
    // switch 1 on the 4-GPU fabric is node 5: the diagnostic names it
    EXPECT_TRUE(pathContains(r.diagnostics[0], "node 5"));
}

TEST(Verify, V7CatchesRailShardDisagreement)
{
    SystemConfig c = tinyConfig();
    c.fabric = FabricParams::preset("rail-optimized-2node");
    System sys(c);
    verify::Options o;
    o.v7DomainOverrideSwitch = 1; // rail 1 of group 0
    o.v7DomainOverrideShard = 2;  // ...pushed off its group's shard
    verify::VerifyResult r = verify::verifySystem(sys, o);
    ASSERT_FALSE(r.ok());
    bool sawDisagreement = false;
    for (const verify::Diagnostic &d : r.diagnostics) {
        EXPECT_EQ(d.id, "V7");
        if (d.message.find("rails disagree") != std::string::npos) {
            sawDisagreement = true;
            // rail 1 of group 0 on the 16-GPU shape is node 17
            EXPECT_TRUE(pathContains(d, "node 17"));
        }
    }
    EXPECT_TRUE(sawDisagreement);
}

TEST(Verify, V7CatchesSplitModeMismatchOnShardedSystem)
{
    SystemConfig c = tinyConfig();
    c.shards = 2;
    System sys(c);
    ASSERT_EQ(sys.activeShards(), 2);
    EXPECT_TRUE(verify::verifySystem(sys).ok());
    // Claim switch 0 shares the host shard: its links really are in
    // split-delivery mode, so the claimed map cannot close.
    verify::Options o;
    o.v7DomainOverrideSwitch = 0;
    o.v7DomainOverrideShard = 0;
    verify::VerifyResult r = verify::verifySystem(sys, o);
    ASSERT_FALSE(r.ok());
    bool sawSplitMismatch = false;
    for (const verify::Diagnostic &d : r.diagnostics)
        if (d.id == "V7" &&
            d.message.find("split-delivery") != std::string::npos)
            sawSplitMismatch = true;
    EXPECT_TRUE(sawSplitMismatch);
}

TEST(Verify, V7CleanOnShardedPresets)
{
    for (const std::string &name : FabricParams::presetNames()) {
        SystemConfig c = tinyConfig();
        c.fabric = FabricParams::preset(name);
        c.shards = 4;
        EXPECT_TRUE(verify::verifySystem(System(c)).ok()) << name;
    }
}

// ---------------------------------------------------------------
// Suppression end-to-end (satellite: verifySuppress)
// ---------------------------------------------------------------

TEST(Verify, V6V7SuppressionSkipsTheRules)
{
    System sys(tinyConfig());
    verify::Options o;
    o.v6LookaheadOverride = 1;
    o.v7DomainOverrideSwitch = 0;
    o.v7DomainOverrideShard = 0;
    EXPECT_FALSE(verify::verifySystem(sys, o).ok());
    o.suppress.insert("V6");
    EXPECT_FALSE(verify::verifySystem(sys, o).ok());
    o.suppress.insert("V7");
    EXPECT_TRUE(verify::verifySystem(sys, o).ok());
}

TEST(Verify, UnknownSuppressIdIsIgnored)
{
    System sys(tinyConfig());
    verify::Options o;
    o.suppress.insert("V99");
    o.suppress.insert("bogus");
    o.v6LookaheadOverride = 1;
    verify::VerifyResult r = verify::verifySystem(sys, o);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V6");
}

TEST(Verify, SuppressedRunIsBitIdenticalToUnsuppressed)
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    RunConfig cfg;
    cfg.gpu.jitterSigma = 0.0;
    cfg.verify = true;

    OpGraph g1 = buildSubLayer(m, SubLayerId::L1);
    RunResult plain = runGraph(makeCais(), g1, cfg, "L1");

    cfg.verifySuppress = {"V6", "V7", "V99"};
    OpGraph g2 = buildSubLayer(m, SubLayerId::L1);
    RunResult sup = runGraph(makeCais(), g2, cfg, "L1");

    EXPECT_EQ(plain.makespan, sup.makespan);
    EXPECT_EQ(plain.eventsExecuted, sup.eventsExecuted);
    EXPECT_GT(plain.eventsExecuted, 0u);
}

// ---------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------

TEST(Verify, JsonDocumentRoundTrips)
{
    SystemConfig c = tinyConfig();
    c.fabric.vcCredits = 8;
    System sys(c);
    verify::Options o;
    o.strategy = "CAIS";
    o.workload = "L1";
    verify::VerifyResult r = verify::verifySystem(sys, o);
    ASSERT_FALSE(r.ok());

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(r.json(), doc, err)) << err;
    EXPECT_EQ(doc.getString("schema", ""), "cais-verify-v1");
    EXPECT_EQ(doc.getString("strategy", ""), "CAIS");
    EXPECT_EQ(doc.getString("workload", ""), "L1");
    const JsonValue *counts = doc.find("counts");
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ(counts->getNumber("V2", 0), 1.0);
    EXPECT_EQ(counts->getNumber("V1", -1), 0.0);
    const JsonValue *diags = doc.find("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_EQ(diags->elems.size(), r.diagnostics.size());
    EXPECT_EQ(diags->elems[0].getString("id", ""), "V2");
    ASSERT_NE(diags->elems[0].find("path"), nullptr);
    EXPECT_FALSE(diags->elems[0].find("path")->elems.empty());
}

TEST(Verify, TextRenderingIncludesHintAndPath)
{
    System sys(tinyConfig());
    verify::Options o;
    o.extraCouplings.push_back(
        {true, VcClass::response, VcClass::request});
    std::string text = verify::verifySystem(sys, o).text();
    EXPECT_NE(text.find("[V1]"), std::string::npos);
    EXPECT_NE(text.find("fix:"), std::string::npos);
    EXPECT_NE(text.find("path:"), std::string::npos);
    EXPECT_NE(text.find(" -> "), std::string::npos);
    EXPECT_EQ(verify::verifySystem(sys).text(),
              "cais-verify: clean (0 diagnostics)\n");
}

// ---------------------------------------------------------------
// RunConfig bounds validation + the runGraph gate
// ---------------------------------------------------------------

TEST(Verify, RunConfigValidationRejectsBadBounds)
{
    RunConfig ok;
    EXPECT_EQ(ok.validationError(), "");

    RunConfig c = ok;
    c.numGpus = 1;
    EXPECT_NE(c.validationError().find("numGpus"), std::string::npos);
    c = ok;
    c.numGpus = 121;
    EXPECT_NE(c.validationError().find("participant masks"),
              std::string::npos);
    c = ok;
    c.topology = "no-such-fabric";
    EXPECT_NE(c.validationError().find("unknown topology preset"),
              std::string::npos);
    c = ok;
    c.numSwitches = 0;
    EXPECT_NE(c.validationError().find("numSwitches"),
              std::string::npos);
    c = ok;
    c.chunkBytes = 0;
    EXPECT_NE(c.validationError().find("power of two"),
              std::string::npos);
    c = ok;
    c.chunkBytes = 3000;
    EXPECT_NE(c.validationError().find("power of two"),
              std::string::npos);
    c = ok;
    c.perGpuBwPerDir = -1.0;
    EXPECT_NE(c.validationError().find("perGpuBwPerDir"),
              std::string::npos);
    c = ok;
    c.maxEvents = 0;
    EXPECT_NE(c.validationError().find("maxEvents"),
              std::string::npos);
    c = ok;
    c.gpu.numSms = 0;
    EXPECT_NE(c.validationError().find("numSms"), std::string::npos);
    c = ok;
    c.shards = -2;
    EXPECT_NE(c.validationError().find("shards must be >= 0"),
              std::string::npos);
}

TEST(Verify, RunConfigValidationRejectsSubPacketChunk)
{
    // A power of two below one coalesced packet used to pass here and
    // then abort inside GpuParams::validate.
    RunConfig c;
    for (std::uint32_t bytes : {1u, 32u, 64u}) {
        c.chunkBytes = bytes;
        EXPECT_NE(c.validationError().find("chunkBytes must be >= 128"),
                  std::string::npos)
            << bytes;
    }
    c.chunkBytes = 128;
    EXPECT_EQ(c.validationError(), "");
}

TEST(Verify, RunConfigValidateIsFatal)
{
    RunConfig c;
    c.chunkBytes = 3000;
    EXPECT_DEATH(c.validate(), "invalid RunConfig");
}

TEST(Verify, RunGraphRejectsInvalidConfigBeforeConstruction)
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    RunConfig cfg;
    cfg.numGpus = 1;
    EXPECT_DEATH(runGraph(makeCais(), g, cfg, "L1"),
                 "invalid RunConfig");
}

TEST(Verify, GatedRunIsBitIdenticalToUngated)
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    RunConfig cfg;
    cfg.gpu.jitterSigma = 0.0;

    cfg.verify = true;
    OpGraph g1 = buildSubLayer(m, SubLayerId::L1);
    RunResult on = runGraph(makeCais(), g1, cfg, "L1");

    cfg.verify = false;
    OpGraph g2 = buildSubLayer(m, SubLayerId::L1);
    RunResult off = runGraph(makeCais(), g2, cfg, "L1");

    EXPECT_EQ(on.makespan, off.makespan);
    EXPECT_EQ(on.eventsExecuted, off.eventsExecuted);
    EXPECT_GT(on.eventsExecuted, 0u);
}

TEST(Verify, GateSuppressionListIsHonored)
{
    // A credit mismatch cannot be seeded through RunConfig (the gate
    // always derives balanced credits), so drive the suppression path
    // through verifySystem options equivalence instead.
    SystemConfig c = tinyConfig();
    c.fabric.vcCredits = 8;
    System sys(c);
    verify::Options o;
    o.suppress.insert("V2");
    EXPECT_TRUE(verify::verifySystem(sys, o).ok());
    EXPECT_FALSE(verify::verifySystem(sys).ok());
}
