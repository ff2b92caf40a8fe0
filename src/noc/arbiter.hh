/**
 * @file
 * Round-robin arbiter, as used by NVSwitch port arbitration and by
 * CAIS's traffic control between load and reduction virtual channels
 * (Sec. III-C of the paper).
 */

#ifndef CAIS_NOC_ARBITER_HH
#define CAIS_NOC_ARBITER_HH

#include <bit>
#include <cstdint>

#include "common/types.hh"

namespace cais
{

/** Stateful round-robin arbiter over up to 64 requesters. */
class RoundRobinArbiter
{
  public:
    /** Widest request set pick() accepts (one bit per input). */
    static constexpr int maxInputs = 64;

    explicit RoundRobinArbiter(int num_inputs);

    /**
     * Grant the next ready input after the previous grant.
     * @param ready bit i set when input i is requesting; bits at or
     *        above inputs() are ignored.
     * @return granted input index, or -1 if none ready.
     */
    int
    pick(std::uint64_t ready)
    {
        ready &= valid;
        if (ready == 0)
            return -1;
        // Inputs at or after the cursor win first; otherwise wrap to
        // the lowest ready input.
        std::uint64_t upper = ready & (~std::uint64_t(0) << cursor());
        last = std::countr_zero(upper ? upper : ready);
        return last;
    }

    /** Number of inputs arbitrated over. */
    int inputs() const { return n; }

    /** Index that would be checked first on the next pick. */
    int cursor() const { return last + 1 == n ? 0 : last + 1; }

  private:
    int n;
    int last;
    std::uint64_t valid; ///< low n bits set
};

} // namespace cais

#endif // CAIS_NOC_ARBITER_HH
