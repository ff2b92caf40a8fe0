#include "workload/transformer.hh"

#include "common/log.hh"

namespace cais
{

const char *
subLayerName(SubLayerId s)
{
    switch (s) {
      case SubLayerId::L1: return "L1.outproj-LN-ffn1.fwd";
      case SubLayerId::L2: return "L2.ffn2-LN-inproj.fwd";
      case SubLayerId::L3: return "L3.ffn1-LN-outproj.bwd";
      case SubLayerId::L4: return "L4.inproj-LN-ffn2.bwd";
      default: return "?";
    }
}

namespace
{

/** Append a GEMM-RS + LN + AG-GEMM chain to @p g. */
void
appendRsLnAgChain(OpGraph &g, const LlmConfig &m, OpId producer_in,
                  std::int64_t k1, std::int64_t n2, double flop_scale,
                  const char *tag)
{
    std::int64_t toks = m.tokens();
    std::int64_t h = m.hidden;

    std::vector<OpId> in;
    if (producer_in != invalidId)
        in.push_back(producer_in);

    OpId gemm1 = g.addOp(OpKind::gemmRowParallel,
                         std::string(tag) + ".gemm-rs", toks, h, k1, in);
    g.node(gemm1).flopScale = flop_scale;

    OpId rs = g.addOp(OpKind::reduceScatter,
                      std::string(tag) + ".rs", toks, h, 0, {gemm1});
    g.node(rs).rowSharded = true;

    OpId ln = g.addOp(OpKind::layerNorm, std::string(tag) + ".ln",
                      toks, h, 0, {rs});
    g.node(ln).rowSharded = true;

    OpId ag = g.addOp(OpKind::allGather, std::string(tag) + ".ag",
                      toks, h, 0, {ln});

    OpId gemm2 = g.addOp(OpKind::gemmColParallel,
                         std::string(tag) + ".ag-gemm", toks, n2, h,
                         {ag});
    g.node(gemm2).flopScale = flop_scale;
    g.node(gemm2).colSharded = true;
}

} // namespace

OpGraph
buildSubLayer(const LlmConfig &m, SubLayerId which)
{
    m.validate();
    OpGraph g;
    switch (which) {
      case SubLayerId::L1:
        // out-proj (K = hidden) -> RS -> LN -> AG -> FFN1 (N = ffn).
        appendRsLnAgChain(g, m, invalidId, m.hidden, m.ffnHidden, 1.0,
                          "L1");
        break;
      case SubLayerId::L2:
        // FFN2 (K = ffn) -> RS -> LN -> AG -> QKV proj (N = 3h).
        appendRsLnAgChain(g, m, invalidId, m.ffnHidden, 3 * m.hidden,
                          1.0, "L2");
        break;
      case SubLayerId::L3:
        // backward: FFN1 grad (K = ffn) -> RS -> LN -> AG -> out-proj
        // grad (N = hidden); dgrad+wgrad doubles GEMM FLOPs.
        appendRsLnAgChain(g, m, invalidId, m.ffnHidden, m.hidden, 2.0,
                          "L3");
        break;
      case SubLayerId::L4:
        // backward: in-proj grad (K = 3h) -> RS -> LN -> AG -> FFN2
        // grad (N = ffn).
        appendRsLnAgChain(g, m, invalidId, 3 * m.hidden, m.ffnHidden,
                          2.0, "L4");
        break;
    }
    g.validate();
    return g;
}

namespace
{

/** Append one transformer layer; @p input feeds the first LayerNorm
 *  (invalidId for the stack's first layer). Returns the residual
 *  output op. */
OpId
appendLayer(OpGraph &g, const LlmConfig &m, Pass pass, OpId input,
            const std::string &prefix)
{
    double fs = pass == Pass::forward ? 1.0 : 2.0;
    std::int64_t toks = m.tokens();
    std::int64_t h = m.hidden;

    std::vector<OpId> first_in;
    if (input != invalidId)
        first_in.push_back(input);

    // --- Attention block -------------------------------------------
    OpId ln1 = g.addOp(OpKind::layerNorm, prefix + "attn.ln", toks, h,
                       0, first_in);
    g.node(ln1).rowSharded = true;

    OpId ag1 = g.addOp(OpKind::allGather, prefix + "attn.ag", toks, h,
                       0, {ln1});

    OpId qkv = g.addOp(OpKind::gemmColParallel, prefix + "attn.qkv",
                       toks, 3 * h, h, {ag1});
    g.node(qkv).flopScale = fs;
    g.node(qkv).colSharded = true;

    OpId attn = g.addOp(OpKind::attentionCore, prefix + "attn.core",
                        toks, h, m.seqLen, {qkv});
    g.node(attn).flopScale = fs;
    g.node(attn).colSharded = true;

    OpId outp = g.addOp(OpKind::gemmRowParallel,
                        prefix + "attn.outproj", toks, h, h, {attn});
    g.node(outp).flopScale = fs;

    OpId rs1 = g.addOp(OpKind::reduceScatter, prefix + "attn.rs",
                       toks, h, 0, {outp});
    g.node(rs1).rowSharded = true;

    OpId add1 = g.addOp(OpKind::elementwise, prefix + "attn.dropadd",
                        toks, h, 0, {rs1});
    g.node(add1).rowSharded = true;

    // --- FFN block --------------------------------------------------
    OpId ln2 = g.addOp(OpKind::layerNorm, prefix + "ffn.ln", toks, h,
                       0, {add1});
    g.node(ln2).rowSharded = true;

    OpId ag2 = g.addOp(OpKind::allGather, prefix + "ffn.ag", toks, h,
                       0, {ln2});

    OpId ffn1 = g.addOp(OpKind::gemmColParallel, prefix + "ffn.fc1",
                        toks, m.ffnHidden, h, {ag2});
    g.node(ffn1).flopScale = fs;
    g.node(ffn1).colSharded = true;

    OpId gelu = g.addOp(OpKind::elementwise, prefix + "ffn.gelu",
                        toks, m.ffnHidden, 0, {ffn1});
    g.node(gelu).colSharded = true;

    OpId ffn2 = g.addOp(OpKind::gemmRowParallel, prefix + "ffn.fc2",
                        toks, h, m.ffnHidden, {gelu});
    g.node(ffn2).flopScale = fs;

    OpId rs2 = g.addOp(OpKind::reduceScatter, prefix + "ffn.rs", toks,
                       h, 0, {ffn2});
    g.node(rs2).rowSharded = true;

    OpId add2 = g.addOp(OpKind::elementwise, prefix + "ffn.dropadd",
                        toks, h, 0, {rs2});
    g.node(add2).rowSharded = true;
    return add2;
}

} // namespace

OpGraph
buildTransformerLayer(const LlmConfig &m, Pass pass)
{
    m.validate();
    OpGraph g;
    appendLayer(g, m, pass, invalidId, "");
    g.validate();
    return g;
}

OpGraph
buildTransformerStack(const LlmConfig &m, int layers, Pass pass)
{
    m.validate();
    if (layers < 1)
        fatal("transformer stack needs at least one layer");
    OpGraph g;
    OpId prev = invalidId;
    // Built by appends: GCC 12 flags `"l" + std::to_string(l)` (and
    // `tag = "l"`) with a false -Wrestrict warning.
    std::string tag;
    for (int l = 0; l < layers; ++l) {
        tag.clear();
        tag += 'l';
        tag += std::to_string(l);
        tag += '.';
        prev = appendLayer(g, m, pass, prev, tag);
    }
    g.validate();
    return g;
}

} // namespace cais
