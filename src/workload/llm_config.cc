#include "workload/llm_config.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/log.hh"

namespace cais
{

LlmConfig
LlmConfig::scaled(double dim_factor, double token_factor) const
{
    auto round128 = [](double v) {
        std::int64_t r = static_cast<std::int64_t>(v / 128.0 + 0.5) * 128;
        return std::max<std::int64_t>(r, 128);
    };
    LlmConfig c = *this;
    c.hidden = round128(static_cast<double>(hidden) * dim_factor);
    c.ffnHidden = round128(static_cast<double>(ffnHidden) * dim_factor);
    c.seqLen = round128(static_cast<double>(seqLen) * token_factor);
    c.heads = std::max(1, static_cast<int>(heads * dim_factor));
    return c;
}

std::string
LlmConfig::scaleError(double dim_factor, double token_factor)
{
    if (!std::isfinite(dim_factor) || dim_factor <= 0.0)
        return strfmt("dim=%g is not a finite scale factor > 0",
                      dim_factor);
    if (!std::isfinite(token_factor) || token_factor <= 0.0)
        return strfmt("tok=%g is not a finite scale factor > 0",
                      token_factor);
    return "";
}

void
LlmConfig::validate() const
{
    if (hidden < 128 || ffnHidden < 128 || seqLen < 128 || batch < 1 ||
        heads < 1 || layers < 1)
        fatal("model %s: invalid configuration", name.c_str());
}

std::string
LlmConfig::str() const
{
    std::ostringstream os;
    os << name << ": hidden=" << hidden << " ffn=" << ffnHidden
       << " heads=" << heads << " seq=" << seqLen << " batch=" << batch
       << " layers=" << layers;
    return os.str();
}

LlmConfig
megaGpt4B()
{
    return LlmConfig{"Mega-GPT-4B", 2048, 8192, 24, 1024, 16, 24};
}

LlmConfig
megaGpt8B()
{
    return LlmConfig{"Mega-GPT-8B", 3072, 12288, 32, 1024, 12, 32};
}

LlmConfig
llama7B()
{
    return LlmConfig{"LLaMA-7B", 4096, 11264, 32, 3072, 3, 32};
}

LlmConfig
llamaFullScale()
{
    return LlmConfig{"LLaMA-Full", 8192, 22528, 64, 3072, 3, 32};
}

std::vector<LlmConfig>
tableOneModels()
{
    return {megaGpt4B(), megaGpt8B(), llama7B()};
}

} // namespace cais
