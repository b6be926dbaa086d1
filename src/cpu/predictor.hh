/**
 * @file
 * Branch direction predictor (2-bit bimodal) with a branch target
 * buffer. A loop branch mispredicts while the bimodal counter warms
 * up, predicts correctly in steady state, and mispredicts once at
 * loop exit — the classic pattern the paper's loop benchmark sees.
 */

#ifndef PCA_CPU_PREDICTOR_HH
#define PCA_CPU_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "cpu/cache.hh"
#include "support/types.hh"

namespace pca::cpu
{

/** Bimodal predictor + BTB. */
class BranchPredictor
{
  public:
    /**
     * @param btb_sets BTB sets (power of two)
     * @param btb_ways BTB associativity
     */
    BranchPredictor(int btb_sets, int btb_ways);

    /**
     * Predict and train on one executed conditional branch.
     *
     * @param addr branch instruction address
     * @param taken actual outcome
     * @return true if the prediction was wrong
     *
     * Inline: called once per executed branch on the interpreter's
     * hot path.
     */
    bool predictAndTrain(Addr addr, bool taken)
    {
        ++lookupCount;
        std::uint8_t &ctr = bimodal[tableIndex(addr)];
        const bool pred_taken = ctr >= 2;

        // A predicted-taken branch also needs its target from the
        // BTB; a BTB miss redirects late and costs like a mispredict.
        // Loop branches re-access one address: use the memoized path.
        const bool btb_hit = btb.accessHot(addr);
        const bool mispredict =
            (pred_taken != taken) || (taken && !btb_hit);

        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;

        if (mispredict)
            ++mispredictCount;
        return mispredict;
    }

    /**
     * Record an unconditional transfer (jmp/call/ret); only allocates
     * the BTB entry, never mispredicts in this model.
     */
    void noteUncond(Addr addr) { btb.accessHot(addr); }

    /** Forget all state (new program / context switch flush). */
    void reset();

    std::uint64_t mispredicts() const { return mispredictCount; }
    std::uint64_t lookups() const { return lookupCount; }

  private:
    /** Drop the low 2 bits (dense code) and fold. */
    std::size_t tableIndex(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> 2) ^ (addr >> 13)) &
            idxMask;
    }

    std::vector<std::uint8_t> bimodal; //!< 2-bit saturating counters
    std::size_t idxMask = 0; //!< bimodal.size() - 1 (power of two)
    CacheModel btb;
    std::uint64_t mispredictCount = 0;
    std::uint64_t lookupCount = 0;
};

} // namespace pca::cpu

#endif // PCA_CPU_PREDICTOR_HH
