#include "gpu/gpu_config.hh"

#include <sstream>

#include "common/log.hh"

namespace cais
{

std::string
GpuParams::validationError() const
{
    if (numSms < 1)
        return strfmt("gpu.numSms must be >= 1 (got %d)", numSms);
    if (ctasPerSm < 1)
        return strfmt("gpu.ctasPerSm must be >= 1 (got %d)", ctasPerSm);
    if (hbmBytesPerCycle <= 0)
        return strfmt("gpu.hbmBytesPerCycle must be > 0 (got %g)",
                      hbmBytesPerCycle);
    if (chunkBytes < 128)
        return "chunk granularity below one coalesced packet (128 B)";
    if (maxInflightChunks < 1)
        return strfmt("gpu.maxInflightChunks must be >= 1 (got %d)",
                      maxInflightChunks);
    if (maxCaisLoadOutstanding < 1)
        return strfmt("gpu.maxCaisLoadOutstanding must be >= 1 (got %d)",
                      maxCaisLoadOutstanding);
    if (jitterSigma < 0 || jitterSigma > 0.5)
        return strfmt("gpu.jitterSigma must be in [0, 0.5] (got %g)",
                      jitterSigma);
    return "";
}

void
GpuParams::validate() const
{
    std::string err = validationError();
    if (!err.empty())
        fatal("%s", err.c_str());
}

std::string
GpuParams::str() const
{
    std::ostringstream os;
    os << numSms << " SMs x " << ctasPerSm << " CTAs, "
       << effectiveFlopsPerCyclePerSm() << " eff FLOP/cyc/SM, HBM "
       << hbmBytesPerCycle << " B/cyc, chunk " << chunkBytes << " B";
    return os.str();
}

GpuParams
fullScaleH100()
{
    GpuParams p;
    p.numSms = 132;
    return p;
}

GpuParams
halfScaleH100()
{
    GpuParams p;
    p.numSms = 66;
    return p;
}

} // namespace cais
