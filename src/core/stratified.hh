/**
 * @file
 * Stratified sampling over a live-point library (the optimization the
 * paper cites from Wunderlich et al., WDDD 2004). Program order is
 * divided into contiguous strata; measurements are allocated greedily
 * to the stratum with the largest marginal variance reduction (greedy
 * Neyman allocation). Only independent checkpoints permit this:
 * functional warming would force program order.
 */

#ifndef LP_CORE_STRATIFIED_HH
#define LP_CORE_STRATIFIED_HH

#include "core/runners.hh"

namespace lp
{

struct StratifiedOptions
{
    ConfidenceSpec spec{};
    unsigned threads = 1; //!< workers for the pilot batch
};

struct StratifiedResult
{
    double mean = 0.0;      //!< stratified CPI estimate
    std::size_t processed = 0;
    bool satisfied = false; //!< reached the confidence target
    unsigned strata = 0;
    double relHalfWidth = 0.0;
};

StratifiedResult runStratified(const Program &prog,
                               const LivePointLibrary &lib,
                               const CoreConfig &cfg,
                               const StratifiedOptions &opt);

} // namespace lp

#endif // LP_CORE_STRATIFIED_HH
