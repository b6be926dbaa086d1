/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: banner
 * printing and paper-vs-measured comparison rows.
 */

#ifndef PCA_BENCH_BENCH_UTIL_HH
#define PCA_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <string>
#include <vector>

#include "obs/env.hh"
#include "stats/descriptive.hh"
#include "support/random.hh"
#include "support/strutil.hh"

namespace pca::bench
{

/**
 * Print the standard exhibit banner. Every bench main calls this
 * first, so it doubles as the hook that arms the observability layer
 * from PCA_SPC / PCA_TRACE (a no-op with both unset).
 */
inline void
banner(const std::string &exhibit, const std::string &caption)
{
    obs::initObservabilityFromEnv();
    std::cout << std::string(72, '=') << '\n'
              << exhibit << " — " << caption << '\n'
              << std::string(72, '=') << "\n\n";
}

/** Print a paper-vs-measured line. */
inline void
paperRef(const std::string &what, double paper, double measured,
         int digits = 1)
{
    std::cout << "  " << padRight(what, 44) << " paper "
              << padLeft(fmtDouble(paper, digits), 9)
              << "   measured "
              << padLeft(fmtDouble(measured, digits), 9) << '\n';
}

} // namespace pca::bench

#endif // PCA_BENCH_BENCH_UTIL_HH
