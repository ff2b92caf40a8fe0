#include "noc/arbiter.hh"

#include "common/log.hh"

namespace cais
{

RoundRobinArbiter::RoundRobinArbiter(int num_inputs)
    : n(num_inputs), last(num_inputs - 1),
      valid(num_inputs >= maxInputs
                ? ~std::uint64_t(0)
                : (std::uint64_t(1) << num_inputs) - 1)
{
    if (num_inputs <= 0 || num_inputs > maxInputs)
        panic("arbiter needs 1..%d inputs (got %d)", maxInputs,
              num_inputs);
}

} // namespace cais
