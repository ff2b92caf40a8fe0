#include "common/stats.hh"

#include "common/log.hh"

namespace cais
{

Histogram::Histogram(double lo_, double hi_, std::size_t bins)
    : lo(lo_), hi(hi_)
{
    if (bins == 0 || hi_ <= lo_)
        panic("invalid histogram range/bins");
    binWidth = (hi - lo) / static_cast<double>(bins);
    counts.assign(bins + 2, 0);
}

void
Histogram::sample(double v)
{
    acc.sample(v);
    std::size_t idx;
    if (v < lo) {
        idx = 0;
    } else if (v >= hi) {
        idx = counts.size() - 1;
    } else {
        idx = 1 + static_cast<std::size_t>((v - lo) / binWidth);
        if (idx > counts.size() - 2)
            idx = counts.size() - 2;
    }
    ++counts[idx];
}

double
Histogram::percentile(double frac) const
{
    if (acc.count() == 0)
        return lo; // documented zero-sample value: the range start
    // Clamp into [0, 1]; written so a NaN frac falls through to 0
    // (std::clamp propagates NaN).
    if (!(frac >= 0.0))
        frac = 0.0;
    if (frac > 1.0)
        frac = 1.0;
    double target = frac * static_cast<double>(acc.count());
    double seen = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        double next = seen + static_cast<double>(counts[i]);
        if (next >= target) {
            if (i == 0)
                return lo;
            if (i == counts.size() - 1)
                return hi;
            // Interpolate within the bin.
            double bin_lo = lo + static_cast<double>(i - 1) * binWidth;
            double f = counts[i]
                ? (target - seen) / static_cast<double>(counts[i]) : 0.0;
            return bin_lo + f * binWidth;
        }
        seen = next;
    }
    return hi;
}

void
TimeSeries::grow(std::size_t need)
{
    // Amortized doubling: a monotonically advancing clock would
    // otherwise trigger a linear-time resize on nearly every record.
    if (need > bins.capacity())
        bins.reserve(std::max(need, bins.capacity() * 2));
    bins.resize(need, 0.0);
}

void
TimeSeries::record(Cycle when, double amount)
{
    std::size_t idx = static_cast<std::size_t>(when / width);
    if (idx >= bins.size())
        grow(idx + 1);
    bins[idx] += amount;
}

void
TimeSeries::recordInterval(Cycle start, Cycle end, double amount)
{
    if (end <= start) {
        record(start, amount);
        return;
    }
    double span = static_cast<double>(end - start);
    std::size_t first = static_cast<std::size_t>(start / width);
    std::size_t last = static_cast<std::size_t>((end - 1) / width);
    if (last >= bins.size())
        grow(last + 1);
    for (std::size_t i = first; i <= last; ++i) {
        Cycle bin_lo = static_cast<Cycle>(i) * width;
        Cycle bin_hi = bin_lo + width;
        Cycle seg_lo = std::max(start, bin_lo);
        Cycle seg_hi = std::min(end, bin_hi);
        bins[i] += amount * static_cast<double>(seg_hi - seg_lo) / span;
    }
}

double
TimeSeries::binValue(std::size_t i) const
{
    return i < bins.size() ? bins[i] : 0.0;
}

} // namespace cais
