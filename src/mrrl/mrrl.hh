/**
 * @file
 * Memory Reference Reuse Latency analysis (Haskins & Skadron, as used
 * in Section 4.2): for each sampled window, find the shortest warming
 * interval that covers a target fraction (default 99.9%) of the
 * window's reused memory blocks. AW-MRRL warms only that interval
 * instead of the whole inter-window gap, trading a small bias for a
 * large reduction in warming work.
 *
 * A window's reuse distances are one per distinct 64-byte block it
 * touches that was touched before it: the window start minus that
 * block's last touch. Only the windows' own blocks matter, so the
 * analysis fetches each window once to learn them, then scans the
 * stream before the last window for just those blocks. Program::fetch
 * is a pure function of the index, so the scan splits into contiguous
 * ranges that run in parallel and combine in index order; the result
 * does not depend on how many ranges there are.
 */

#ifndef LP_MRRL_MRRL_HH
#define LP_MRRL_MRRL_HH

#include <vector>

#include "workload/generator.hh"

namespace lp
{

class ThreadPool;

/** The reuse-coverage target of the paper's AW-MRRL (99.9%). */
inline constexpr double defaultMrrlCoverage = 0.999;

struct MrrlAnalysis
{
    /** Reuse-coverage target the lengths were computed for. */
    double coverage = defaultMrrlCoverage;

    /** Warming instructions required before each window. */
    std::vector<InstCount> warmingLengths;

    /** Reused blocks observed per window (diagnostic). */
    std::vector<std::uint64_t> reusedBlocks;
};

/**
 * For each window [start, start + windowLen) of @p starts,
 * clipped to the program's end, the reuse-latency distribution of the
 * blocks it touches, and from it the @p coverage-quantile warming
 * length. A window with no reused block (or starting past the end)
 * gets length 0.
 *
 * The windows must be sorted and disjoint: starts[w] + windowLen <=
 * starts[w + 1] for every w, or std::invalid_argument is thrown.
 *
 * With @p pool, the scan runs as one range per pool worker; without
 * one it runs on the calling thread. Either way the result is the
 * same, bit for bit.
 */
MrrlAnalysis analyzeMrrl(const Program &prog,
                         const std::vector<InstCount> &starts,
                         InstCount windowLen,
                         double coverage = defaultMrrlCoverage,
                         ThreadPool *pool = nullptr);

} // namespace lp

#endif // LP_MRRL_MRRL_HH
