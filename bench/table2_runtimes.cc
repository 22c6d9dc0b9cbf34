/**
 * @file
 * Table 2 — runtimes of the four simulation strategies per benchmark:
 * complete detailed simulation (sim-outorder equivalent, extrapolated
 * from a measured slice), SMARTS full warming, AW-MRRL adaptive
 * warming, and live-points. Reports min/avg/max per strategy and the
 * headline speedup ratios.
 *
 * Absolute wall-clock values are host- and scale-dependent; the
 * paper-shape claims are the *ratios* and their per-benchmark
 * identities (perlbmk fastest under O(B) strategies, parser slowest;
 * low-variance benchmarks fastest under live-points).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "mrrl/mrrl.hh"
#include "util/log.hh"

using namespace lp;
using namespace lpbench;

namespace
{

struct Row
{
    std::string name;
    double complete = 0;   //!< extrapolated complete-sim seconds
    double smarts = 0;     //!< full-warming seconds
    double aw = 0;         //!< AW-MRRL seconds (warming + detailed)
    double livepoints = 0; //!< live-point run seconds
    std::uint64_t n = 0;
};

void
printRows(const char *config, const std::vector<Row> &rows)
{
    std::printf("\n[%s]\n", config);
    std::printf("%-10s %6s | %12s %12s %12s %12s\n", "benchmark", "n",
                "complete*", "SMARTS", "AW-MRRL", "live-points");
    for (const Row &r : rows)
        std::printf("%-10s %6llu | %12s %12s %12s %12s\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.n),
                    fmtTime(r.complete).c_str(),
                    fmtTime(r.smarts).c_str(), fmtTime(r.aw).c_str(),
                    fmtTime(r.livepoints).c_str());

    auto summarize = [&](auto field, const char *label) {
        double mn = 1e30;
        double mx = 0;
        double sum = 0;
        std::string mnb;
        std::string mxb;
        for (const Row &r : rows) {
            const double v = field(r);
            sum += v;
            if (v < mn) {
                mn = v;
                mnb = r.name;
            }
            if (v > mx) {
                mx = v;
                mxb = r.name;
            }
        }
        std::printf("%-12s min %10s (%s)  avg %10s  max %10s (%s)\n",
                    label, fmtTime(mn).c_str(), mnb.c_str(),
                    fmtTime(sum / rows.size()).c_str(),
                    fmtTime(mx).c_str(), mxb.c_str());
    };
    std::printf("\n");
    summarize([](const Row &r) { return r.complete; }, "complete*");
    summarize([](const Row &r) { return r.smarts; }, "SMARTS");
    summarize([](const Row &r) { return r.aw; }, "AW-MRRL");
    summarize([](const Row &r) { return r.livepoints; }, "live-points");

    double sumS = 0;
    double sumA = 0;
    double sumL = 0;
    double sumC = 0;
    for (const Row &r : rows) {
        sumC += r.complete;
        sumS += r.smarts;
        sumA += r.aw;
        sumL += r.livepoints;
    }
    std::printf("\nspeedups (avg): SMARTS vs complete %.1fx | "
                "live-points vs SMARTS %.1fx | vs AW-MRRL %.1fx\n",
                sumC / sumS, sumS / sumL, sumA / sumL);
    std::printf("paper (unscaled SPEC2K): SMARTS vs complete ~19x; "
                "live-points vs SMARTS ~277x; vs AW-MRRL ~59x\n"
                "(our ratios shrink with the scaled-down benchmark "
                "length; see bench/scaling_runtime and EXPERIMENTS.md)\n");
}

Row
runOne(const PreparedBench &b, const CoreConfig &cfg,
       const BenchSettings &s)
{
    Row row;
    row.name = b.profile.name;
    row.n = sampleSize(b, cfg, s);
    const SampleDesign design =
        SampleDesign::systematic(b.length, row.n, 1000,
                                 cfg.detailedWarming);

    // Complete detailed simulation, extrapolated from a 1M-inst slice
    // (detailed-simulation time is linear in instructions).
    const InstCount slice = std::min<InstCount>(1'000'000, b.length);
    const CompleteSimResult cs = runCompleteDetailed(b.prog, cfg, slice);
    row.complete = cs.wallSeconds * static_cast<double>(b.length) /
                   static_cast<double>(cs.insts);

    const SampledEstimate sm = runSmarts(b.prog, cfg, design);
    row.smarts = sm.wallSeconds;

    const MrrlAnalysis mrrl = analyzeMrrl(
        b.prog, design.windowStarts(), design.windowLen());
    const SampledEstimate aw =
        runAdaptiveWarming(b.prog, cfg, design, mrrl, true);
    row.aw = aw.wallSeconds;

    LivePointBuilderConfig bc = defaultBuilderConfig();
    LivePointLibrary lib = cachedLibrary(b, design, bc, s);
    Rng rng(2025, "table2-shuffle");
    lib.shuffle(rng);
    LivePointRunOptions opt;
    const LivePointRunResult lp = runLivePoints(b.prog, lib, cfg, opt);
    row.livepoints = lp.wallSeconds;
    return row;
}

} // namespace

int
main()
{
    setQuiet(true);
    const BenchSettings s = settings();
    printHeader(strfmt("Table 2: runtimes per benchmark "
                       "(%s suite, scale=%.2f, n<=%llu)",
                       s.full ? "full" : "quick", s.scale,
                       static_cast<unsigned long long>(
                           s.maxSampleSize)));
    const auto suite = prepareSuite(s);

    for (const CoreConfig &cfg :
         {CoreConfig::eightWay(), CoreConfig::sixteenWay()}) {
        std::vector<Row> rows;
        for (const PreparedBench &b : suite) {
            rows.push_back(runOne(b, cfg, s));
            std::fprintf(stderr, "  [table2/%s] %s done\n",
                         cfg.name.c_str(),
                         rows.back().name.c_str());
        }
        printRows(cfg.name.c_str(), rows);
    }
    std::printf("\n* complete-simulation time extrapolated from a "
                "measured 1M-instruction slice.\n");
    return 0;
}
