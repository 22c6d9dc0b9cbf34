/**
 * MRRL analysis against its reference. The original whole-stream walk,
 * which kept every block's last touch in one map, is the oracle: the
 * windows-only scan must give exactly its warmingLengths and
 * reusedBlocks with no pool and with pools of 1, 2, 3, 4 and 7
 * workers, over every window set the builder and the AW-MRRL runners
 * hand it and the edges around them. Windows that are unsorted or
 * overlap are rejected.
 */

#include "test_util.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "mrrl/mrrl.hh"
#include "util/threadpool.hh"

namespace
{

using namespace lp;

/** The original one-pass analysis, verbatim: the oracle. */
MrrlAnalysis
referenceMrrl(const Program &prog,
              const std::vector<InstCount> &windowStarts,
              InstCount windowLen, double coverage)
{
    MrrlAnalysis out;
    out.coverage = coverage;
    out.warmingLengths.assign(windowStarts.size(), 0);
    out.reusedBlocks.assign(windowStarts.size(), 0);

    constexpr std::uint64_t kBlock = 64;
    std::unordered_map<Addr, InstCount> lastTouch;
    lastTouch.reserve(1 << 20);

    std::size_t w = 0;                 // next/current window
    std::vector<InstCount> distances;  // reuse distances of window w
    // Walk the dynamic stream once; windows are disjoint and sorted.
    for (InstCount idx = 0; idx < prog.length; ++idx) {
        // Close windows that ended before idx.
        while (w < windowStarts.size() &&
               idx >= windowStarts[w] + windowLen) {
            std::sort(distances.begin(), distances.end());
            if (!distances.empty()) {
                const std::size_t q = std::min(
                    distances.size() - 1,
                    static_cast<std::size_t>(
                        coverage *
                        static_cast<double>(distances.size())));
                out.warmingLengths[w] = distances[q];
                out.reusedBlocks[w] = distances.size();
            }
            distances.clear();
            ++w;
        }
        if (w >= windowStarts.size())
            break; // past the last window: nothing left to measure

        const Instruction ins = prog.fetch(idx);
        if (!ins.isMem())
            continue;
        const Addr block = ins.addr - (ins.addr % kBlock);
        const bool inWindow = w < windowStarts.size() &&
                              idx >= windowStarts[w] &&
                              idx < windowStarts[w] + windowLen;
        if (inWindow) {
            const auto it = lastTouch.find(block);
            if (it != lastTouch.end() && it->second < windowStarts[w])
                distances.push_back(windowStarts[w] - it->second);
        }
        lastTouch[block] = idx;
    }
    // Close any window ending at program end.
    if (w < windowStarts.size() && !distances.empty()) {
        std::sort(distances.begin(), distances.end());
        const std::size_t q = std::min(
            distances.size() - 1,
            static_cast<std::size_t>(
                coverage * static_cast<double>(distances.size())));
        out.warmingLengths[w] = distances[q];
        out.reusedBlocks[w] = distances.size();
    }
    return out;
}

/** No pool first, then pools of 1, 2, 3, 4 and 7 workers. */
std::vector<std::unique_ptr<ThreadPool>>
makePools()
{
    std::vector<std::unique_ptr<ThreadPool>> pools;
    pools.push_back(nullptr);
    for (unsigned n : {1u, 2u, 3u, 4u, 7u})
        pools.push_back(std::make_unique<ThreadPool>(n));
    return pools;
}

/**
 * analyzeMrrl at every pool size must equal the oracle; returns the
 * oracle's result so a case can also check it is not vacuous.
 */
MrrlAnalysis
checkCase(const char *what, const Program &prog,
          const std::vector<InstCount> &starts, InstCount windowLen,
          double coverage,
          const std::vector<std::unique_ptr<ThreadPool>> &pools)
{
    const MrrlAnalysis ref =
        referenceMrrl(prog, starts, windowLen, coverage);
    for (const auto &pool : pools) {
        const MrrlAnalysis got =
            analyzeMrrl(prog, starts, windowLen, coverage, pool.get());
        const bool same = got.warmingLengths == ref.warmingLengths &&
                          got.reusedBlocks == ref.reusedBlocks &&
                          got.coverage == coverage;
        if (!same)
            std::fprintf(stderr, "%s (%s, %zu windows, coverage %g): "
                                 "differs with %u pool workers\n",
                         what, prog.name.c_str(), starts.size(),
                         coverage, pool ? pool->size() : 0u);
        CHECK(same);
    }
    return ref;
}

std::uint64_t
sum(const std::vector<std::uint64_t> &v)
{
    std::uint64_t s = 0;
    for (std::uint64_t x : v)
        s += x;
    return s;
}

/** True iff @p fn throws std::invalid_argument. */
template <class F>
bool
throwsInvalidArgument(F fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &) {
        return true;
    } catch (...) {
    }
    return false;
}

} // namespace

int
main()
{
    using namespace lptest;

    const auto pools = makePools();

    // Two programs: the 8-way's 2000-instruction warming and a longer
    // one, so window lengths and footprints differ.
    const TinyBench benches[] = {
        makeTinyBench("mrrl-a", 300'000, 7, 30),
        makeTinyBench("mrrl-b", 160'000, 11, 12, 6000),
    };
    for (const TinyBench &t : benches) {
        const Program &prog = t.prog;
        const SampleDesign &d = t.design;
        const InstCount L = d.windowLen();
        const InstCount len = prog.length;
        CHECK(d.count >= 12);

        // Every window of the design, at three coverage targets.
        const MrrlAnalysis all = checkCase("every window", prog,
                                           d.windowStarts(), L,
                                           defaultMrrlCoverage, pools);
        CHECK(sum(all.reusedBlocks) > 0);
        CHECK(*std::max_element(all.warmingLengths.begin(),
                                all.warmingLengths.end()) > 0);
        const MrrlAnalysis half = checkCase(
            "every window", prog, d.windowStarts(), L, 0.5, pools);
        const MrrlAnalysis full = checkCase(
            "every window", prog, d.windowStarts(), L, 1.0, pools);
        for (std::size_t w = 0; w < d.count; ++w) {
            CHECK(half.warmingLengths[w] <= all.warmingLengths[w]);
            CHECK(all.warmingLengths[w] <= full.warmingLengths[w]);
        }

        // The builder's shard-leading windows for S = 2..8.
        for (std::uint64_t S = 2; S <= 8; ++S) {
            std::vector<InstCount> starts;
            for (std::uint64_t s = 1; s < S; ++s)
                starts.push_back(d.windowStart(d.count * s / S));
            const MrrlAnalysis m = checkCase("shard-leading", prog,
                                             starts, L,
                                             defaultMrrlCoverage, pools);
            CHECK(sum(m.reusedBlocks) > 0);
        }

        // A window at index 0 has nothing before it to reuse.
        const MrrlAnalysis first = checkCase(
            "window at 0", prog, {0}, L, defaultMrrlCoverage, pools);
        CHECK_EQ(first.reusedBlocks[0], 0u);
        checkCase("window at 0, then one", prog, {0, len / 2}, L, 0.5,
                  pools);

        // Touching windows: each one's reuses reach into the last.
        checkCase("touching", prog,
                  {len / 3, len / 3 + L, len / 3 + 2 * L}, L,
                  defaultMrrlCoverage, pools);

        // Windows starting on every scan range boundary of pools of
        // 2, 3, 4 and 7 (the last start is the scan's end).
        {
            const InstCount unit = len / 2 / 84;
            std::vector<InstCount> starts;
            for (InstCount k : {12, 21, 24, 28, 36, 42, 48, 56, 60, 63,
                                72, 84})
                starts.push_back(unit * k);
            checkCase("on range boundaries", prog, starts,
                      std::min<InstCount>(L, unit * 3),
                      defaultMrrlCoverage, pools);
        }

        // A window running past the program's end, alone and after
        // another.
        checkCase("past the end", prog, {len - L / 2}, L,
                  defaultMrrlCoverage, pools);
        const MrrlAnalysis tail =
            checkCase("past the end", prog, {len / 2, len - L / 2}, L,
                      1.0, pools);
        CHECK(tail.reusedBlocks[1] > 0);

        // Windows starting at or past the end touch nothing.
        const MrrlAnalysis beyond =
            checkCase("starting past the end", prog,
                      {len / 2, len, len + 5 * L}, L,
                      defaultMrrlCoverage, pools);
        CHECK(beyond.reusedBlocks[0] > 0);
        CHECK_EQ(beyond.reusedBlocks[1], 0u);
        CHECK_EQ(beyond.reusedBlocks[2], 0u);
        checkCase("straddling then past the end", prog,
                  {len - L / 2, len + L}, L, defaultMrrlCoverage, pools);

        // No windows, and empty windows (which may share a start).
        CHECK(checkCase("no windows", prog, {}, L, defaultMrrlCoverage,
                        pools)
                  .warmingLengths.empty());
        checkCase("empty windows", prog, {100, 100, len / 2}, 0,
                  defaultMrrlCoverage, pools);
        checkCase("one-instruction windows", prog,
                  {len / 4, len / 4 + 1, len / 2}, 1, 1.0, pools);
    }

    // The precondition: starts sorted, each window ending at or before
    // the next one's start. Anything else is rejected, with or without
    // a pool.
    {
        const Program &prog = benches[0].prog;
        const InstCount L = 3000;
        for (const auto &pool : pools) {
            ThreadPool *p = pool.get();
            CHECK(throwsInvalidArgument([&] {
                analyzeMrrl(prog, {50'000, 10'000}, L,
                            defaultMrrlCoverage, p);
            }));
            CHECK(throwsInvalidArgument([&] {
                analyzeMrrl(prog, {10'000, 10'000 + L - 1}, L,
                            defaultMrrlCoverage, p);
            }));
            CHECK(throwsInvalidArgument([&] {
                analyzeMrrl(prog, {10'000, 10'000}, L,
                            defaultMrrlCoverage, p);
            }));
            CHECK(throwsInvalidArgument([&] {
                analyzeMrrl(prog, {10'000, 20'000, 15'000}, 0,
                            defaultMrrlCoverage, p);
            }));
            CHECK(!throwsInvalidArgument([&] {
                analyzeMrrl(prog, {10'000, 10'000 + L}, L,
                            defaultMrrlCoverage, p);
            }));
        }
    }

    return TEST_MAIN_RESULT();
}
