/**
 * @file
 * LLM configurations of Table I (already the paper's scaled-down
 * variants: hidden / FFN dims are 50% of the full models, matched by
 * a 50% SM count), plus the full-scale LLaMA used in the Table II
 * scaling validation and helpers for further shape-preserving
 * reductions used by the fast bench mode.
 */

#ifndef CAIS_WORKLOAD_LLM_CONFIG_HH
#define CAIS_WORKLOAD_LLM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cais
{

/** One evaluated model configuration. */
struct LlmConfig
{
    std::string name;
    std::int64_t hidden = 0;
    std::int64_t ffnHidden = 0;
    int heads = 0;
    std::int64_t seqLen = 0;
    int batch = 0;

    /**
     * Transformer layer count used to extrapolate end-to-end time
     * from the simulated (homogeneous) layer. Table I does not list
     * depths; these follow the public model families.
     */
    int layers = 32;

    /** Tokens per microbatch = batch x sequence length. */
    std::int64_t tokens() const
    {
        return static_cast<std::int64_t>(batch) * seqLen;
    }

    /**
     * Shape-preserving reduction: scales hidden dims by @p dim_factor
     * and tokens by @p token_factor. Used by benches to keep runtimes
     * in seconds; compute:communication ratios are preserved when the
     * SM count is scaled alongside (the paper's own methodology,
     * Sec. IV-B / Table II). Every dimension clamps to at least 128,
     * so tiny positive factors still give a valid model.
     */
    LlmConfig scaled(double dim_factor, double token_factor) const;

    /** "" when @p dim_factor and @p token_factor are finite and > 0,
     *  else a message naming the bad one (the front-door check on
     *  dim=/tok= before scaled() clamps them). */
    static std::string scaleError(double dim_factor,
                                  double token_factor);

    void validate() const;
    std::string str() const;
};

/** Table I rows. */
LlmConfig megaGpt4B();
LlmConfig megaGpt8B();
LlmConfig llama7B();

/** Full-scale LLaMA-7B-class config of Table II ("Full" row). */
LlmConfig llamaFullScale();

/** All Table I models in paper order. */
std::vector<LlmConfig> tableOneModels();

} // namespace cais

#endif // CAIS_WORKLOAD_LLM_CONFIG_HH
