/**
 * @file
 * Command-line front end shared by cais_verify and cais_bound: both
 * walk the same acceptance matrix of strategies x workloads x
 * topologies (the L1-L4/layer_fwd/layer_bwd table, topology=all
 * expansion, machine knobs, strategy/workload filters, json_out=).
 */

#ifndef CAIS_TOOLS_MATRIX_CLI_HH
#define CAIS_TOOLS_MATRIX_CLI_HH

#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "runtime/simulation_driver.hh"
#include "workload/llm_config.hh"

namespace cais::matrix
{

/** One workload column of the matrix. */
struct Workload
{
    std::string name;
    std::function<OpGraph(const LlmConfig &)> build;
};

/** What differs between the tools in the shared usage text. */
struct Tool
{
    const char *name;       ///< "cais_verify"
    const char *flags;      ///< extra bare flags, e.g. "[--list-rules] "
    const char *verb;       ///< "verify" / "run" one strategy
    const char *extraUsage; ///< extra key=value lines
};

/** A parsed matrix command line. */
struct MatrixArgs
{
    /** parse() result: carry on with the matrix. */
    static constexpr int proceed = -1;

    explicit MatrixArgs(const Tool &t) : tool(t) {}

    Tool tool;
    Params params;
    bool wantJson = false;

    /** topology=all: the flat shape plus every shipped preset. */
    bool sweepAll = false;
    std::vector<std::string> topologies; ///< "" is the flat shape
    std::vector<StrategySpec> strategies;
    std::vector<Workload> workloads;
    LlmConfig model;

    /**
     * Parse argv and resolve the matrix. Returns proceed, or the exit
     * code after printing help (0) or a usage/config error (2).
     */
    int parse(int argc, char **argv);

    /** Machine config of one topology (bench defaults + knobs). */
    RunConfig runConfig(const std::string &topo) const;

    /** Workload label of a run: "L1@nvl72" under topology=all. */
    std::string label(const Workload &w, const std::string &topo) const;

    /** --json or json_out= asked for the JSON document. */
    bool jsonRequested() const;

    /** Write @p doc to json_out= and/or stdout (--json); false after
     *  printing an error when json_out= cannot be written. */
    bool emitJson(const std::string &doc) const;
};

} // namespace cais::matrix

#endif // CAIS_TOOLS_MATRIX_CLI_HH
