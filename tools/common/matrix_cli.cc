#include "matrix_cli.hh"

#include <cctype>
#include <cstdio>

#include "workload/transformer.hh"

namespace cais::matrix
{

namespace
{

std::vector<Workload>
allWorkloads()
{
    auto sub = [](SubLayerId L) {
        return [L](const LlmConfig &m) { return buildSubLayer(m, L); };
    };
    return {
        {"L1", sub(SubLayerId::L1)},
        {"L2", sub(SubLayerId::L2)},
        {"L3", sub(SubLayerId::L3)},
        {"L4", sub(SubLayerId::L4)},
        {"layer_fwd",
         [](const LlmConfig &m) {
             return buildTransformerLayer(m, Pass::forward);
         }},
        {"layer_bwd",
         [](const LlmConfig &m) {
             return buildTransformerLayer(m, Pass::backward);
         }},
    };
}

std::string
lowerCase(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Print the usage text to stderr; returns the usage exit code. */
int
usage(const Tool &tool)
{
    std::fprintf(
        stderr,
        "usage: %s [--json] %s[key=value...]\n"
        "  strategy=NAME   %s one strategy (default: all)\n"
        "  workload=NAME   L1|L2|L3|L4|layer_fwd|layer_bwd "
        "(default: all)\n"
        "%s"
        "  json_out=PATH   write the JSON document to PATH\n"
        "  topology=NAME   fabric preset (dgx-h100, nvl72, "
        "rail-optimized-2node/-4node),\n"
        "                  or 'all' to sweep flat + every preset\n"
        "  gpus= switches= chunk= sms= dim= tok= seed=   "
        "machine knobs (bench defaults)\n",
        tool.name, tool.flags, tool.verb, tool.extraUsage);
    return 2;
}

} // namespace

int
MatrixArgs::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            wantJson = true;
        } else if (arg == "-h" || arg == "--help") {
            usage(tool);
            return 0;
        } else if (!params.parseToken(arg)) {
            std::fprintf(stderr, "%s: bad argument '%s'\n", tool.name,
                         arg.c_str());
            return usage(tool);
        }
    }

    const std::string topo_arg = params.getString("topology", "");
    sweepAll = topo_arg == "all";
    if (sweepAll) {
        topologies.push_back("");
        for (const std::string &n : FabricParams::presetNames())
            topologies.push_back(n);
    } else {
        topologies.push_back(topo_arg);
    }
    for (const std::string &topo : topologies) {
        std::string err = runConfig(topo).validationError();
        if (!err.empty()) {
            std::fprintf(stderr, "%s: invalid config: %s\n", tool.name,
                         err.c_str());
            return 2;
        }
    }

    // Small scale factors keep graph construction (and, for
    // cais_bound, the 330-run matrix) fast while preserving every
    // structural property the checks look at.
    const double dim = params.getDouble("dim", 0.25);
    const double tok = params.getDouble("tok", 0.125);
    std::string scale_err = LlmConfig::scaleError(dim, tok);
    if (!scale_err.empty()) {
        std::fprintf(stderr, "%s: invalid config: %s\n", tool.name,
                     scale_err.c_str());
        return 2;
    }
    model = megaGpt4B().scaled(dim, tok);

    std::string only_strategy = params.getString("strategy", "");
    for (const StrategySpec &s : allStrategies())
        if (only_strategy.empty() ||
            lowerCase(s.name) == lowerCase(only_strategy))
            strategies.push_back(s);
    if (strategies.empty()) {
        std::string names;
        for (const StrategySpec &s : allStrategies())
            names += (names.empty() ? "" : " ") + s.name;
        std::fprintf(stderr,
                     "%s: unknown strategy '%s' (one of: %s)\n",
                     tool.name, only_strategy.c_str(), names.c_str());
        return usage(tool);
    }

    std::string only_workload = params.getString("workload", "");
    for (Workload &w : allWorkloads())
        if (only_workload.empty() || w.name == only_workload)
            workloads.push_back(std::move(w));
    if (workloads.empty()) {
        std::fprintf(stderr, "%s: unknown workload '%s'\n", tool.name,
                     only_workload.c_str());
        return usage(tool);
    }
    return proceed;
}

RunConfig
MatrixArgs::runConfig(const std::string &topo) const
{
    RunConfig cfg;
    cfg.topology = topo;
    // With a preset, default the GPU count to the preset's own
    // (nvl72 -> 72); gpus= still overrides for withGpus scaling
    // (single-topology mode only — 'all' keeps preset shapes).
    if (const FabricParams *p = FabricParams::findPreset(topo))
        cfg.numGpus = p->numGpus;
    if (!sweepAll) {
        cfg.numGpus =
            static_cast<int>(params.getInt("gpus", cfg.numGpus));
        cfg.numSwitches = static_cast<int>(
            params.getInt("switches", cfg.numSwitches));
    }
    cfg.gpu.chunkBytes = static_cast<std::uint32_t>(
        params.getInt("chunk", cfg.gpu.chunkBytes));
    cfg.gpu.numSms =
        static_cast<int>(params.getInt("sms", cfg.gpu.numSms));
    cfg.seed = static_cast<std::uint64_t>(params.getInt(
        "seed", static_cast<std::int64_t>(cfg.seed)));
    return cfg;
}

std::string
MatrixArgs::label(const Workload &w, const std::string &topo) const
{
    return sweepAll && !topo.empty() ? w.name + "@" + topo : w.name;
}

bool
MatrixArgs::jsonRequested() const
{
    return wantJson || params.has("json_out");
}

bool
MatrixArgs::emitJson(const std::string &doc) const
{
    std::string json_out = params.getString("json_out", "");
    if (!json_out.empty()) {
        std::FILE *f = std::fopen(json_out.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "%s: cannot write %s\n", tool.name,
                         json_out.c_str());
            return false;
        }
        std::fputs(doc.c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
    }
    if (wantJson)
        std::printf("%s\n", doc.c_str());
    return true;
}

} // namespace cais::matrix
