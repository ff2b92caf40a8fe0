/** @file Tests for the cais-verify static model checker (§6e). */

#include <gtest/gtest.h>

#include "analysis/verify.hh"
#include "common/json.hh"
#include "noc/topology.hh"
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
    for (TbGrid &grid : k.grids)
        grid.add().computeCycles = 10;
    return k;
}

/** Seed a V2 defect: a sync request sent before the first event
 *  leaves its uplink VC one credit short of the full grant. */
void
spendCreditBeforeRun(System &sys)
{
    sys.gpu(0).hub().sendSyncReq(0, SyncPhase::preLaunch, 2);
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

TEST(Verify, RuleTableListsEveryLiveRule)
{
    // V6/V7 were retired with the sharded event core; the surviving
    // rules keep their ids.
    const std::vector<std::string> want = {"V1", "V2", "V3", "V4",
                                           "V5", "V8", "V9"};
    const auto &rules = verify::ruleTable();
    ASSERT_EQ(rules.size(), want.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
        EXPECT_EQ(rules[i].id, want[i]);
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
    System sys(tinyConfig());
    spendCreditBeforeRun(sys);
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V2");
    EXPECT_NE(r.diagnostics[0].message.find(
                  "holds 255 credits before the first event "
                  "(expected the full grant of 256)"),
              std::string::npos)
        << r.diagnostics[0].message;
    EXPECT_TRUE(pathContains(r.diagnostics[0], "up.g0."));
}

// ---------------------------------------------------------------
// V3: seeded two-switch address class / membership mismatch
// ---------------------------------------------------------------

TEST(Verify, V3CatchesChunkStraddlingInterleaveBlocks)
{
    SystemConfig c = tinyConfig();
    // Four switches, so interleave blocks 0 and 1 hash to different
    // ones (3 and 1): a straddle that stays on one switch splits
    // nothing and is not reported.
    c.fabric.numSwitches = 4;
    System sys(c);
    KernelDesc k = emptyKernel("red", sys.numGpus());
    for (TbGrid &grid : k.grids) {
        RemoteOp op;
        op.kind = RemoteOpKind::caisRed;
        op.base = c.fabric.interleaveBytes / 2; // mid-block start
        op.bytes = c.gpu.chunkBytes;            // ...so it straddles
        op.expected = sys.numGpus();
        grid.addPush(op);
    }
    sys.addKernel(std::move(k));
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V3");
    EXPECT_TRUE(pathContains(r.diagnostics[0], "addr=0x800"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "sw"));
}

TEST(Verify, V3IgnoresStraddleThatStaysOnOneSwitch)
{
    SystemConfig c = tinyConfig(); // 2 switches: blocks 0, 1 -> sw1
    System sys(c);
    ASSERT_EQ(sys.fabric().routeAddr(0),
              sys.fabric().routeAddr(c.fabric.interleaveBytes));
    KernelDesc k = emptyKernel("red", sys.numGpus());
    for (TbGrid &grid : k.grids) {
        RemoteOp op;
        op.kind = RemoteOpKind::caisRed;
        op.base = c.fabric.interleaveBytes / 2;
        op.bytes = c.gpu.chunkBytes;
        op.expected = sys.numGpus();
        grid.addPush(op);
    }
    sys.addKernel(std::move(k));
    verify::VerifyResult r = verify::verifySystem(sys);
    EXPECT_TRUE(r.ok()) << r.text();
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
        k.grids[static_cast<std::size_t>(g)].addPush(op);
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
    for (TbGrid &grid : k.grids)
        grid.tbs[0].group = 0;
    TbDesc &extra = k.grids[0].add(); // second group-0 TB on GPU 0
    extra.computeCycles = 10;
    extra.group = 0;
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
        k.grids[static_cast<std::size_t>(g)].tbs[0].group = 0;
    sys.addKernel(std::move(k));
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V4");
    EXPECT_TRUE(pathContains(r.diagnostics[0], "missing gpu3"));
}

TEST(Verify, V4HandlesSparseGroupIds)
{
    // Group ids far apart (hand-built, not from allocGroups): each
    // group is still checked on its own, in id order.
    System sys(tinyConfig());
    KernelDesc k = emptyKernel("sync", sys.numGpus());
    k.preAccessSync = true;
    const GroupId far = 1 << 30;
    for (GpuId g = 0; g < sys.numGpus(); ++g) {
        TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
        grid.tbs[0].group = far;
        if (g != 1)
            grid.add().group = 5;
    }
    sys.addKernel(std::move(k));
    verify::VerifyResult r = verify::verifySystem(sys);
    ASSERT_EQ(r.diagnostics.size(), 1u) << r.text();
    EXPECT_EQ(r.diagnostics[0].id, "V4");
    EXPECT_TRUE(pathContains(r.diagnostics[0], "group=5"));
    EXPECT_TRUE(pathContains(r.diagnostics[0], "missing gpu1"));
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
    EXPECT_NE(r.diagnostics[0].message.find("cycle over 2 kernel(s)"),
              std::string::npos)
        << r.diagnostics[0].message;
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
        for (TbGrid &grid : k.grids) {
            RemoteOp op;
            op.kind = RemoteOpKind::caisLoad;
            op.base = static_cast<Addr>(i) * 1u << 20;
            op.bytes = c.gpu.chunkBytes;
            op.expected = sys.numGpus();
            grid.addPull(op);
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
// Every defect in one lowering: the full diagnostic list, locked
// ---------------------------------------------------------------

namespace
{

/** Append one remote op to GPU @p g's last TB of @p k. */
void
addOp(KernelDesc &k, GpuId g, RemoteOpKind kind, Addr base,
      std::uint64_t bytes, int expected)
{
    RemoteOp op;
    op.kind = kind;
    op.base = base;
    op.bytes = bytes;
    op.expected = expected;
    TbGrid &grid = k.grids[static_cast<std::size_t>(g)];
    if (isPullKind(kind))
        grid.addPull(op);
    else
        grid.addPush(op);
}

/** Append a compute-only TB in @p group to GPU @p g's grid. */
void
addGroupTb(KernelDesc &k, GpuId g, GroupId group)
{
    TbDesc &tb = k.grids[static_cast<std::size_t>(g)].add();
    tb.computeCycles = 10;
    tb.group = group;
}

/** One "rule | message | path" line per diagnostic, in order. */
std::string
diagnosticLines(const verify::VerifyResult &r)
{
    std::string s;
    for (const verify::Diagnostic &d : r.diagnostics) {
        s += d.id + " | " + d.message + " |";
        for (const std::string &p : d.path)
            s += " [" + p + "]";
        s += "\n";
    }
    return s;
}

} // namespace

TEST(Verify, MultiDefectDiagnosticsMatchGolden)
{
    SystemConfig c = tinyConfig();
    c.fabric.numSwitches = 4; // interleave blocks 0 and 1 split
    System sys(c);
    const int G = sys.numGpus();
    const std::uint64_t chunk = c.gpu.chunkBytes;

    // V3: four defective sessions in one kernel, issued out of their
    // (kind, base) order so the report order is the checker's own.
    KernelDesc s = emptyKernel("v3.sessions", G);
    for (GpuId g = 0; g < G - 1; ++g) // issuer shortfall
        addOp(s, g, RemoteOpKind::caisRed, 8 * chunk, chunk, G);
    for (GpuId g = 0; g < G; ++g) // duplicate contribution on GPU 1
        addOp(s, g, RemoteOpKind::caisRed, 2 * chunk, chunk, G);
    addOp(s, 1, RemoteOpKind::caisRed, 2 * chunk, chunk, G);
    addOp(s, 0, RemoteOpKind::caisLoad, 6 * chunk, chunk, G - 1);
    addOp(s, 2, RemoteOpKind::caisLoad, 6 * chunk, chunk, G - 2);
    addOp(s, 3, RemoteOpKind::caisLoad, c.fabric.interleaveBytes / 2,
          chunk, G - 1); // straddles blocks 0 and 1
    sys.addKernel(std::move(s));

    // V4: group 11 has two TBs on GPU 0; group 12 misses GPU 3.
    KernelDesc y;
    y.name = "v4.sync";
    y.preLaunchSync = true;
    y.grids.resize(static_cast<std::size_t>(G));
    for (GpuId g = 0; g < G; ++g) {
        if (g < G - 1)
            addGroupTb(y, g, 12);
        addGroupTb(y, g, 11);
    }
    addGroupTb(y, 0, 11);
    sys.addKernel(std::move(y));

    // V5: a dependency on a kernel that does not exist.
    KernelDesc d = emptyKernel("v5.deps", G);
    d.kernelDeps.push_back(42);
    sys.addKernel(std::move(d));

    verify::VerifyResult r = verify::verifySystem(sys);
    const char *golden =
        "V3 | kernel v3.sessions: ld.cais chunk at 0x800 (+4096 B) "
        "straddles interleave blocks, splitting one address class "
        "across sw3 and sw1 | [v3.sessions] [addr=0x800] [sw3] [sw1]\n"
        "V3 | kernel v3.sessions: GPUs disagree on the expected "
        "participant count of the ld.cais session at 0x6000 | "
        "[v3.sessions] [ld.cais] [expected=2] [expected=3]\n"
        "V3 | kernel v3.sessions: GPU 1 contributes 2 times to the "
        "red.cais session at 0x2000 (exactly one contribution per GPU "
        "closes the session) | [v3.sessions] [gpu1] [contribs=2]\n"
        "V3 | kernel v3.sessions: red.cais session at 0x8000 expects 4 "
        "contributions but 3 GPU(s) issue it | [v3.sessions] "
        "[addr=0x8000] [expected=4] [issuers=3]\n"
        "V4 | kernel v4.sync: TB group 11 has 2 TBs on GPU 0 (the sync "
        "table counts each GPU once, so extra TBs never release) | "
        "[v4.sync] [group=11] [gpu0] [tbs=2]\n"
        "V4 | kernel v4.sync: TB group 12 spans 3 GPU(s) but the "
        "release broadcast waits for all 4 | [v4.sync] [group=12] "
        "[missing gpu3]\n"
        "V5 | kernel v5.deps depends on unknown kernel id 42 | "
        "[v5.deps] [dep=42]\n";
    EXPECT_EQ(diagnosticLines(r), golden);
}

namespace
{

/** A kernel on SM range [@p from, @p to) whose every GPU pulls
 *  (ld.cais) or pushes (red.cais) one chunk at @p base. */
KernelDesc
directedKernel(const std::string &name, int gpus, double from, double to,
               bool pull, bool push, Addr base, std::uint64_t chunk)
{
    KernelDesc k = emptyKernel(name, gpus);
    k.smFrom = from;
    k.smTo = to;
    for (GpuId g = 0; g < gpus; ++g) {
        if (pull)
            addOp(k, g, RemoteOpKind::caisLoad, base, chunk, gpus);
        if (push)
            addOp(k, g, RemoteOpKind::caisRed, base + chunk, chunk,
                  gpus);
    }
    return k;
}

/** Make every TB of @p k wait on tile 0 of @p tracker. */
void
waitOnTracker(KernelDesc &k, int tracker)
{
    for (TbGrid &grid : k.grids)
        grid.addDep({tracker, 0});
}

/** diagnosticLines() restricted to rule V5. */
std::string
v5Lines(const verify::VerifyResult &r)
{
    verify::VerifyResult only;
    for (const verify::Diagnostic &d : r.diagnostics)
        if (d.id == "V5")
            only.diagnostics.push_back(d);
    return diagnosticLines(only);
}

} // namespace

TEST(Verify, V5DiagnosticsMatchGolden)
{
    // The full V5 report for a kernel graph that closes a cycle
    // through explicit and tracker edges, and for one with several
    // same-direction overlap candidates, some ordered only
    // transitively. The DFS visits kernels and targets in ascending
    // id order and pairs are reported in (i, j) order, so both lists
    // are part of the contract.
    const int G = tinyConfig().fabric.numGpus;
    const std::uint64_t chunk = tinyConfig().gpu.chunkBytes;

    System cyc(tinyConfig());
    KernelDesc a = emptyKernel("v5.a", G); // waits on b's tracker 5
    a.producesTracker = 3;
    waitOnTracker(a, 5);
    cyc.addKernel(std::move(a));
    KernelDesc b = emptyKernel("v5.b", G); // launches after c
    b.producesTracker = 5;
    b.kernelDeps.push_back(2);
    cyc.addKernel(std::move(b));
    KernelDesc c = emptyKernel("v5.c", G); // waits on a's tracker 3
    c.producesTracker = 7;
    waitOnTracker(c, 3);
    cyc.addKernel(std::move(c));
    KernelDesc d = emptyKernel("v5.d", G);
    d.kernelDeps.push_back(99);
    waitOnTracker(d, 11); // nobody produces tracker 11
    cyc.addKernel(std::move(d));
    KernelDesc f = emptyKernel("v5.f", G); // second producer of 3
    f.producesTracker = 3;
    cyc.addKernel(std::move(f));
    const char *cycleGolden =
        "V5 | kernel v5.d depends on unknown kernel id 99 | [v5.d] "
        "[dep=99]\n"
        "V5 | kernel dependency cycle over 3 kernel(s): none of them "
        "can ever launch | [v5.a] [v5.c] [v5.b] [v5.a]\n";
    EXPECT_EQ(v5Lines(verify::verifySystem(cyc)), cycleGolden);

    System ovl(tinyConfig());
    const Addr mib = Addr{1} << 20;
    KernelDesc p0 = directedKernel("pull.a", G, 0.0, 0.5, true, false,
                                   0 * mib, chunk);
    p0.producesTracker = 1;
    ovl.addKernel(std::move(p0));
    KernelDesc p1 = directedKernel("pull.b", G, 0.5, 1.0, true, false,
                                   1 * mib, chunk);
    waitOnTracker(p1, 2);
    ovl.addKernel(std::move(p1));
    ovl.addKernel(directedKernel("push.a", G, 0.0, 0.25, false, true,
                                 2 * mib, chunk));
    KernelDesc p3 = directedKernel("push.b", G, 0.5, 0.75, false, true,
                                   3 * mib, chunk);
    p3.producesTracker = 2;
    ovl.addKernel(std::move(p3));
    KernelDesc p4 = directedKernel("pull.c", G, 0.5, 1.0, true, false,
                                   4 * mib, chunk);
    waitOnTracker(p4, 1);
    ovl.addKernel(std::move(p4));
    ovl.addKernel(directedKernel("mixed", G, 0.0, 0.5, true, true,
                                 5 * mib, chunk));
    ovl.addKernel(directedKernel("pull.full", G, 0.0, 1.0, true, false,
                                 6 * mib, chunk));
    KernelDesc p7 = directedKernel("push.c", G, 0.25, 0.5, false, true,
                                   7 * mib, chunk);
    p7.kernelDeps.push_back(1); // after pull.b, so after push.b
    ovl.addKernel(std::move(p7));
    KernelDesc p8 = directedKernel("pull.d", G, 0.0, 0.5, true, false,
                                   8 * mib, chunk);
    ovl.addKernel(std::move(p8));
    auto overlap = [](const std::string &a, const std::string &b,
                      const std::string &dir) {
        return "V5 | asymmetric-overlap pair " + a + " / " + b +
               " runs on disjoint SM partitions with no ordering but "
               "both " + dir + ": the shared link direction saturates "
               "instead of overlapping | [" + a + "] [" + b + "] [" +
               dir + "]\n";
    };
    // push.b / push.c are ordered through pull.b; pull.a / pull.c
    // through tracker 1.
    const std::string overlapGolden =
        overlap("pull.a", "pull.b", "pull") +
        overlap("pull.b", "pull.d", "pull") +
        overlap("push.a", "push.b", "push") +
        overlap("push.a", "push.c", "push") +
        overlap("pull.c", "pull.d", "pull");
    EXPECT_EQ(v5Lines(verify::verifySystem(ovl)), overlapGolden);
}

TEST(Verify, V1CycleDiagnosticMatchesGolden)
{
    // The full V1 report -- message and channel path -- for a GPU-turn
    // and a switch-turn coupling on a flat and on a tiered fabric. The
    // DFS visits nodes and targets in ascending id order, so the cycle
    // it closes first is part of the contract.
    RunConfig rail;
    rail.topology = "rail-optimized-2node";
    rail.numGpus = FabricParams::preset(rail.topology).numGpus;
    const SystemConfig shapes[] = {tinyConfig(),
                                   rail.toSystemConfig(makeCais())};
    const verify::ExtraCoupling couplings[] = {
        {true, VcClass::response, VcClass::request},
        {false, VcClass::control, VcClass::reduction},
    };
    std::string all;
    for (const SystemConfig &c : shapes) {
        System sys(c);
        for (const verify::ExtraCoupling &x : couplings) {
            verify::Options o;
            o.extraCouplings.push_back(x);
            all += diagnosticLines(verify::verifySystem(sys, o));
        }
    }
    const char *golden =
        "V1 | channel-dependency cycle over 4 port/VC channels: a "
        "filled buffer on each waits on the next, so the fabric "
        "can deadlock | [gpu0->sw0 vc0(request)] [sw0->gpu0 "
        "vc0(request)] [gpu0->sw0 vc1(response)] [sw0->gpu0 "
        "vc1(response)] [gpu0->sw0 vc0(request)]\n"
        "V1 | channel-dependency cycle over 2 port/VC channels: a "
        "filled buffer on each waits on the next, so the fabric "
        "can deadlock | [sw0->gpu0 vc2(reduction)] [gpu0->sw0 "
        "vc5(control)] [sw0->gpu0 vc2(reduction)]\n"
        "V1 | channel-dependency cycle over 4 port/VC channels: a "
        "filled buffer on each waits on the next, so the fabric "
        "can deadlock | [gpu0->leaf0.sw0 vc0(request)] "
        "[leaf0.sw0->gpu0 vc0(request)] [gpu0->leaf0.sw0 "
        "vc1(response)] [leaf0.sw0->gpu0 vc1(response)] "
        "[gpu0->leaf0.sw0 vc0(request)]\n"
        "V1 | channel-dependency cycle over 2 port/VC channels: a "
        "filled buffer on each waits on the next, so the fabric "
        "can deadlock | [leaf0.sw0->gpu0 vc2(reduction)] "
        "[gpu0->leaf0.sw0 vc5(control)] [leaf0.sw0->gpu0 "
        "vc2(reduction)]\n";
    EXPECT_EQ(all, golden);
}

TEST(Verify, V1CyclePathsMatchGoldenForEveryCoupling)
{
    // Every single injected coupling (GPU or switch turn, any class
    // pair) on a flat fabric, the same with the unified data VC, and a
    // tiered fabric: the reported cycle paths, in order, folded into
    // one FNV-1a digest. Clean cases contribute an empty line.
    RunConfig rail;
    rail.topology = "rail-optimized-2node";
    rail.numGpus = FabricParams::preset(rail.topology).numGpus;
    SystemConfig unified = tinyConfig();
    unified.fabric.sw.unifiedDataVc = true;
    const SystemConfig shapes[] = {tinyConfig(), unified,
                                   rail.toSystemConfig(makeCais())};
    const int classes = static_cast<int>(VcClass::numClasses);
    std::uint64_t h = 0xcbf29ce484222325ull;
    int cycles = 0;
    for (const SystemConfig &c : shapes) {
        System sys(c);
        for (bool at_gpu : {true, false}) {
            for (int from = 0; from < classes; ++from) {
                for (int to = 0; to < classes; ++to) {
                    verify::Options o;
                    o.suppress = {"V2", "V3", "V4", "V5"};
                    o.extraCouplings.push_back(
                        {at_gpu, static_cast<VcClass>(from),
                         static_cast<VcClass>(to)});
                    std::string line;
                    for (const verify::Diagnostic &d :
                         verify::verifySystem(sys, o).diagnostics) {
                        ++cycles;
                        for (const std::string &p : d.path)
                            line += p + ";";
                    }
                    line += "\n";
                    for (char ch : line) {
                        h ^= static_cast<unsigned char>(ch);
                        h *= 0x100000001b3ull;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cycles, 50);
    EXPECT_EQ(h, 0x5eca1afad55abe72ull) << std::hex << h;
}

TEST(Verify, V1ClassGraphMatchesChannelGraphOnEveryShape)
{
    // Every shape the front door accepts (the sweep of
    // MetricRegistry.SystemRegistersInPathOrder), with the unified
    // data VC off and on: the class graph V1 builds from one channel
    // per (family, VC) is the one OR-ed over every channel, and its
    // verdict is the full channel DFS's.
    std::vector<RunConfig> shapes;
    for (int gpus = 2; gpus <= maxFabricGpus; ++gpus) {
        for (int switches : {1, 2, 3, 4, 7, 8, 11, 16}) {
            RunConfig cfg;
            cfg.numGpus = gpus;
            cfg.numSwitches = switches;
            shapes.push_back(cfg);
        }
        for (const std::string &name : FabricParams::presetNames()) {
            RunConfig cfg;
            cfg.topology = name;
            cfg.numGpus = gpus;
            shapes.push_back(cfg);
        }
    }
    int checked = 0;
    for (const RunConfig &cfg : shapes) {
        if (!cfg.validationError().empty())
            continue;
        FabricParams p = cfg.toSystemConfig(StrategySpec{}).fabric;
        for (bool unified : {false, true}) {
            p.sw.unifiedDataVc = unified;
            const verify::V1Graphs g = verify::v1Graphs(p);
            ASSERT_EQ(g.fromRepresentatives, g.fromEveryChannel)
                << p.str() << (unified ? ", unified VC" : "");
            ASSERT_EQ(g.classCyclic, g.channelCyclic) << p.str();
            EXPECT_FALSE(g.classCyclic) << p.str();
            ++checked;
        }
    }
    EXPECT_EQ(checked, 2 * 1153);
}

TEST(Verify, V1ClassGraphIsCyclicForEveryInjectedCycle)
{
    // The couplings and shapes of V1CyclePathsMatchGoldenForEveryCoupling:
    // wherever the channel DFS finds a cycle, the class graph has one,
    // so V1 runs the DFS and reports it.
    RunConfig rail;
    rail.topology = "rail-optimized-2node";
    rail.numGpus = FabricParams::preset(rail.topology).numGpus;
    SystemConfig unified = tinyConfig();
    unified.fabric.sw.unifiedDataVc = true;
    const SystemConfig shapes[] = {tinyConfig(), unified,
                                   rail.toSystemConfig(makeCais())};
    const int classes = static_cast<int>(VcClass::numClasses);
    int cycles = 0;
    for (const SystemConfig &c : shapes) {
        for (bool at_gpu : {true, false}) {
            for (int from = 0; from < classes; ++from) {
                for (int to = 0; to < classes; ++to) {
                    verify::Options o;
                    o.extraCouplings.push_back(
                        {at_gpu, static_cast<VcClass>(from),
                         static_cast<VcClass>(to)});
                    const verify::V1Graphs g =
                        verify::v1Graphs(c.fabric, o);
                    EXPECT_EQ(g.fromRepresentatives, g.fromEveryChannel);
                    EXPECT_EQ(g.classCyclic, g.channelCyclic)
                        << at_gpu << " " << from << "->" << to;
                    cycles += g.channelCyclic;
                }
            }
        }
    }
    EXPECT_EQ(cycles, 50);
}

// ---------------------------------------------------------------
// Suppression
// ---------------------------------------------------------------

TEST(Verify, UnknownSuppressIdIsIgnored)
{
    System sys(tinyConfig());
    spendCreditBeforeRun(sys); // seeded V2 defect
    verify::Options o;
    o.suppress.insert("V99");
    o.suppress.insert("bogus");
    o.suppress.insert("V6"); // retired id: unknown now
    verify::VerifyResult r = verify::verifySystem(sys, o);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].id, "V2");
}

TEST(Verify, SuppressedRunIsBitIdenticalToUnsuppressed)
{
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    RunConfig cfg;
    cfg.gpu.jitterSigma = 0.0;
    cfg.verify = true;

    OpGraph g1 = buildSubLayer(m, SubLayerId::L1);
    RunResult plain = runGraph(makeCais(), g1, cfg, "L1");

    cfg.verifySuppress = {"V3", "V5", "V99"};
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
    System sys(tinyConfig());
    spendCreditBeforeRun(sys);
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
    c.gpu.chunkBytes = 0;
    EXPECT_NE(c.validationError().find("power of two"),
              std::string::npos);
    c = ok;
    c.gpu.chunkBytes = 3000;
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
}

TEST(Verify, RunConfigValidationRejectsBadGpuParams)
{
    // Each of these passed the front door and then fatal()ed in the
    // System constructor (GpuParams::validate).
    RunConfig c;
    c.gpu.ctasPerSm = 0;
    EXPECT_NE(c.validationError().find("gpu.ctasPerSm"),
              std::string::npos);
    c = RunConfig{};
    c.gpu.jitterSigma = 0.7;
    EXPECT_NE(c.validationError().find("gpu.jitterSigma"),
              std::string::npos);
    c = RunConfig{};
    c.gpu.maxInflightChunks = 0;
    EXPECT_NE(c.validationError().find("gpu.maxInflightChunks"),
              std::string::npos);
    c = RunConfig{};
    c.gpu.hbmBytesPerCycle = 0;
    EXPECT_NE(c.validationError().find("gpu.hbmBytesPerCycle"),
              std::string::npos);
    c = RunConfig{};
    c.gpu.maxCaisLoadOutstanding = 0;
    EXPECT_NE(c.validationError().find("gpu.maxCaisLoadOutstanding"),
              std::string::npos);
    // GpuParams::validate() fatal()s with the same message.
    GpuParams p;
    EXPECT_EQ(p.validationError(), "");
    p.ctasPerSm = 0;
    EXPECT_DEATH(p.validate(), "gpu.ctasPerSm");
}

TEST(Verify, RunConfigValidationRejectsShards)
{
    // The event core is sequential: RunConfig::shards survives only
    // as a field that accepts 1, and anything else is rejected at the
    // front door with a message that says why.
    RunConfig c;
    EXPECT_EQ(c.shards, 1);
    EXPECT_EQ(c.validationError(), "");
    for (int shards : {4, 2, 0, -2}) {
        c.shards = shards;
        const std::string err = c.validationError();
        EXPECT_NE(err.find("shards must be 1"), std::string::npos)
            << shards;
        EXPECT_NE(err.find("sequential"), std::string::npos) << err;
        EXPECT_NE(err.find("got " + std::to_string(shards)),
                  std::string::npos)
            << err;
    }
}

TEST(ShardedDeterminism, NegativeShardsRejected)
{
    RunConfig cfg;
    cfg.shards = -2;
    std::string err = cfg.validationError();
    EXPECT_NE(err.find("shards"), std::string::npos) << err;
}

TEST(Verify, RunConfigValidationRejectsSubPacketChunk)
{
    // A power of two below one coalesced packet used to pass here and
    // then abort inside GpuParams::validate.
    RunConfig c;
    for (std::uint32_t bytes : {1u, 32u, 64u}) {
        c.gpu.chunkBytes = bytes;
        EXPECT_NE(c.validationError().find("chunkBytes must be >= 128"),
                  std::string::npos)
            << bytes;
    }
    c.gpu.chunkBytes = 128;
    EXPECT_EQ(c.validationError(), "");
}

TEST(Verify, Chunk65536CaisL1RunsWithEveryRuleClean)
{
    // Chunks above the 4 KiB allocation granule used to leave tensor
    // bases misaligned against the chunk-wide interleave, so session
    // chunks straddled two blocks (V3) and runGraph aborted.
    RunConfig cfg;
    cfg.gpu.chunkBytes = 65536;
    cfg.verify = true;           // V1-V5 before, V8 after the run
    cfg.boundSlackRatio = 10.0;  // and V9
    LlmConfig m = megaGpt4B().scaled(0.25, 0.25);
    OpGraph g = buildSubLayer(m, SubLayerId::L1);
    // runGraph aborts on any diagnostic, so completing is the check.
    RunResult r = runGraph(makeCais(), g, cfg, "L1");
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GE(r.makespan, r.boundComposite);
}

TEST(Verify, RunConfigValidateIsFatal)
{
    RunConfig c;
    c.gpu.chunkBytes = 3000;
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
    // A credit defect cannot be seeded through RunConfig (the gate
    // verifies before any traffic is sent), so drive the suppression
    // path through verifySystem options equivalence instead.
    System sys(tinyConfig());
    spendCreditBeforeRun(sys);
    verify::Options o;
    o.suppress.insert("V2");
    EXPECT_TRUE(verify::verifySystem(sys, o).ok());
    EXPECT_FALSE(verify::verifySystem(sys).ok());
}
