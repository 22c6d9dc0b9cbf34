/**
 * @file
 * Ablation — the fleet result store. A re-submitted (or widened)
 * design-space campaign against a populated store pays O(lookup)
 * instead of O(replay): every overlapping cell restores its fold
 * state from the LPRES1 container, bit-identical to replaying by the
 * engine's determinism contract. Measures the cold populate run, the
 * fully-memoized warm run, and the store's own serialize/load costs,
 * and verifies zero replays and bit-identical CPIs on the warm path.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/campaign.hh"
#include "store/result_store.hh"
#include "util/log.hh"

using namespace lp;
using namespace lpbench;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main()
{
    setQuiet(true);
    const BenchSettings s = settings();
    printHeader("Ablation: fleet result store (parser, 4-config "
                "design space, memoized resubmission)");
    const PreparedBench b = prepareOne("parser", s);

    std::vector<CoreConfig> cfgs;
    cfgs.push_back(CoreConfig::eightWay());
    {
        CoreConfig c = cfgs[0];
        c.name = "mem-140";
        c.mem.memLatency = 140;
        cfgs.push_back(c);
    }
    {
        CoreConfig c = cfgs[0];
        c.name = "L2-512K";
        c.mem.l2.sizeBytes = 512 * 1024;
        cfgs.push_back(c);
    }
    {
        CoreConfig c = cfgs[0];
        c.name = "RUU-64";
        c.ruuSize = 64;
        cfgs.push_back(c);
    }

    const std::uint64_t n = sampleSize(b, cfgs[0], s);
    const SampleDesign design = SampleDesign::systematic(
        b.length, n, 1000, cfgs[0].detailedWarming);
    LivePointBuilderConfig bc = defaultBuilderConfig();
    LivePointLibrary lib = cachedLibrary(b, design, bc, s);
    Rng rng(5, "store-bench");
    lib.shuffle(rng);
    const std::size_t K = cfgs.size();

    CampaignOptions copt;
    copt.shuffleSeed = 7;

    // Cold: replay the whole grid and publish it.
    const auto t0 = std::chrono::steady_clock::now();
    CampaignEngine cold({{b.profile.name, &b.prog, &lib}}, cfgs, copt);
    const CampaignResult coldRes = cold.run();
    const double coldWall = secondsSince(t0);

    ResultStore store;
    const auto tPub = std::chrono::steady_clock::now();
    const std::size_t published = cold.publish(coldRes, store);
    const std::string storePath = s.cacheDir + "/bench-results.lpres";
    store.save(storePath);
    const double publishWall = secondsSince(tPub);

    // Warm: the same grid again, resolved entirely from the store
    // (loaded fresh from disk, so the lookup cost includes the
    // corruption-strict parse).
    const auto tWarm = std::chrono::steady_clock::now();
    ResultStore reloaded;
    reloaded.load(storePath);
    CampaignOptions wopt = copt;
    wopt.resultStore = &reloaded;
    CampaignEngine warm({{b.profile.name, &b.prog, &lib}}, cfgs, wopt);
    const CampaignResult warmRes = warm.run();
    const double warmWall = secondsSince(tWarm);

    // The warm path must be pure lookup, bit-identical to replaying.
    if (warmRes.memoizedCells != K)
        panic("store bench: expected %zu memoized cells, got %zu", K,
              warmRes.memoizedCells);
    if (warmRes.replaysExecuted != 0 || warmRes.pointsDecoded != 0)
        panic("store bench: warm run replayed/decoded");
    for (std::size_t c = 0; c < K; ++c)
        if (doubleBits(warmRes.cells[c].cpi()) !=
            doubleBits(coldRes.cells[c].cpi()))
            panic("store bench: memoized CPI diverged (config %zu)",
                  c);

    const double speedup = coldWall / warmWall;
    const double cellPoints =
        static_cast<double>(lib.size()) * static_cast<double>(K);
    std::printf("%-28s %10s %12s %10s\n", "mode", "wall", "replays/s",
                "cells");
    std::printf("%-28s %10s %12.1f %10zu\n", "cold (replay+publish)",
                fmtTime(coldWall).c_str(), cellPoints / coldWall, K);
    std::printf("%-28s %10s %12s %10zu\n", "warm (store lookup)",
                fmtTime(warmWall).c_str(), "-", K);
    std::printf("\npublish+save: %s (%zu records)   "
                "lookup-vs-replay speedup: %.0fx\n",
                fmtTime(publishWall).c_str(), published, speedup);
    return 0;
}
