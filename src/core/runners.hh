/**
 * @file
 * The four simulation strategies the paper compares, as one-call
 * runners: complete detailed simulation, SMARTS full warming, AW-MRRL
 * adaptive warming, and live-point replay (absolute estimation with
 * online stopping, and matched-pair comparison).
 */

#ifndef LP_CORE_RUNNERS_HH
#define LP_CORE_RUNNERS_HH

#include "core/builder.hh"
#include "core/library.hh"
#include "core/sample.hh"
#include "mrrl/mrrl.hh"
#include "uarch/core.hh"

namespace lp
{

/** Result of a sampled (SMARTS / AW-MRRL) run. */
struct SampledEstimate
{
    RunningStat stat; //!< per-window CPI observations
    double wallSeconds = 0.0;
    std::uint64_t warmedInsts = 0; //!< functionally warmed instructions

    double cpi() const { return stat.mean(); }
};

/** Result of complete detailed simulation. */
struct CompleteSimResult
{
    double cpi = 0.0;
    double wallSeconds = 0.0;
    InstCount insts = 0;
};

/**
 * Detailed-simulate the whole program (or its first @p maxInsts
 * instructions when nonzero).
 */
CompleteSimResult runCompleteDetailed(const Program &prog,
                                      const CoreConfig &cfg,
                                      InstCount maxInsts = 0);

/** SMARTS: functional warming end to end, detailed windows. */
SampledEstimate runSmarts(const Program &prog, const CoreConfig &cfg,
                          const SampleDesign &design);

/**
 * AW-MRRL: warm each window only for its MRRL-determined interval.
 * @p stitched carries microarchitectural state across windows;
 * unstitched resets it before each warming interval.
 */
SampledEstimate runAdaptiveWarming(const Program &prog,
                                   const CoreConfig &cfg,
                                   const SampleDesign &design,
                                   const MrrlAnalysis &mrrl,
                                   bool stitched);

/**
 * Options shared by the replay-engine runners. Results are folded in
 * deterministic blocks of blockSize points, with the confidence check
 * (early stopping) at the block barriers — so estimates and the
 * stopping point are bit-identical at every thread count.
 */
struct LivePointRunOptions
{
    ConfidenceSpec spec{};
    bool stopAtConfidence = false;
    bool approxWrongPath = false;
    std::uint64_t shuffleSeed = 0; //!< 0: process in stored order
    bool recordTrajectory = false;
    unsigned threads = 1;       //!< simulation workers
    unsigned decodeThreads = 0; //!< decode producers; 0 = auto
    std::size_t blockSize = 0;  //!< fold/stopping block; 0 = default
};

struct LivePointRunResult
{
    OnlineSnapshot finalSnapshot;
    std::size_t processed = 0; //!< points folded into the estimate
    double wallSeconds = 0.0;
    std::uint64_t unavailableLoads = 0;
    std::uint64_t bytesDecoded = 0; //!< raw live-point bytes decoded
    std::uint64_t pointsDecoded = 0;  //!< points the producers decoded
    /** Records those decodes materialized, chain links included. */
    std::uint64_t recordsDecoded = 0;
    std::vector<OnlineSnapshot> trajectory;

    double cpi() const { return finalSnapshot.mean; }
};

/**
 * Reconstruct and detailed-simulate one live-point under @p cfg;
 * the core of every live-point runner.
 */
WindowResult simulateLivePoint(const Program &prog, const LivePoint &point,
                               const CoreConfig &cfg,
                               bool approxWrongPath = false);

/** Process a library, accumulating the online CPI estimate. */
LivePointRunResult runLivePoints(const Program &prog,
                                 const LivePointLibrary &lib,
                                 const CoreConfig &cfg,
                                 const LivePointRunOptions &opt);

/** Outcome of a matched-pair comparison. */
struct MatchedPairResult
{
    double meanDelta = 0.0;      //!< mean (test - base) CPI
    double relDelta = 0.0;       //!< meanDelta / base CPI
    double deltaHalfWidth = 0.0; //!< CI half-width of the delta
    bool significant = false;    //!< CI excludes zero
};

struct MatchedPairOutcome
{
    MatchedPairResult result;
    std::size_t processed = 0; //!< pairs simulated
    std::uint64_t pairedSampleSize = 0;
    std::uint64_t absoluteSampleSize = 0;
    double wallSeconds = 0.0;
};

/**
 * Run @p base and @p test on the same live-points and estimate the
 * per-window CPI delta. With stopAtConfidence, stops as soon as the
 * delta is significant or provably below the spec's noise floor.
 */
MatchedPairOutcome runMatchedPair(const Program &prog,
                                  const LivePointLibrary &lib,
                                  const CoreConfig &base,
                                  const CoreConfig &test,
                                  const LivePointRunOptions &opt);

} // namespace lp

#endif // LP_CORE_RUNNERS_HH
