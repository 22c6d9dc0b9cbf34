/**
 * @file
 * Ablation — the campaign engine's decode-once fan-out. Replaying K
 * configurations against one library costs K decodes per point when
 * each configuration runs separately; the campaign engine decodes
 * once and fans out, so the decompress + deserialize cost Figure 7
 * shows dominating per-point replay is amortized across the design
 * space. Measures aggregate replay throughput both ways (identical
 * results, verified), the campaign's decode-amortization factor, and
 * the worker migration a confidence-stopped campaign gets when cells
 * retire early.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "core/campaign.hh"
#include "util/log.hh"

using namespace lp;
using namespace lpbench;

int
main()
{
    setQuiet(true);
    const BenchSettings s = settings();
    printHeader("Ablation: campaign decode-once fan-out (parser, "
                "4-config design space)");
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
    Rng rng(5, "campaign");
    lib.shuffle(rng);
    const std::size_t K = cfgs.size();
    const double cellPoints = static_cast<double>(lib.size()) *
                              static_cast<double>(K);

    // Reference: each configuration replayed separately — K decodes
    // per point.
    std::vector<double> sepCpi(K);
    double sepWall = 0.0;
    for (std::size_t c = 0; c < K; ++c) {
        LivePointRunOptions opt;
        opt.shuffleSeed = 7;
        const LivePointRunResult r =
            runLivePoints(b.prog, lib, cfgs[c], opt);
        sepCpi[c] = r.cpi();
        sepWall += r.wallSeconds;
    }

    // The campaign: one decode per point, K replays from it.
    CampaignOptions copt;
    copt.shuffleSeed = 7;
    CampaignEngine engine({{b.profile.name, &b.prog, &lib}}, cfgs,
                          copt);
    const CampaignResult fused = engine.run();

    // The fan-out must change scheduling only, never results.
    for (std::size_t c = 0; c < K; ++c)
        if (fused.cells[c].cpi() != sepCpi[c])
            panic("campaign CPI diverged from per-config replay "
                  "(config %zu)",
                  c);

    const double speedup = sepWall / fused.wallSeconds;
    std::printf("%-26s %10s %12s %12s %8s\n", "mode", "wall",
                "replays/s", "decodes", "CPI(8w)");
    std::printf("%-26s %10s %12.1f %12.0f %8.4f\n",
                "per-config (4 runs)", fmtTime(sepWall).c_str(),
                cellPoints / sepWall,
                cellPoints, sepCpi[0]);
    std::printf("%-26s %10s %12.1f %12llu %8.4f\n",
                "campaign (decode-once)",
                fmtTime(fused.wallSeconds).c_str(),
                cellPoints / fused.wallSeconds,
                static_cast<unsigned long long>(fused.pointsDecoded),
                fused.cells[0].cpi());
    std::printf("\naggregate speedup %.2fx; decode fan-out %.2f "
                "replays per decode (target: >= 1.3x for a 4-config "
                "campaign)\n",
                speedup,
                static_cast<double>(fused.replaysExecuted) /
                    static_cast<double>(
                        std::max<std::uint64_t>(fused.pointsDecoded,
                                                1)));

    // Worker migration: with per-cell confidence stopping, converged
    // cells retire and their replay slots go to the rest. The target
    // is calibrated from the measured full-library interval so cells
    // converge mid-run at any bench scale (sqrt(2) looser ~= half the
    // sample); per-cell variance differences then spread the stopping
    // points across barriers.
    CampaignOptions mopt;
    mopt.shuffleSeed = 7;
    mopt.stopAtConfidence = true;
    mopt.blockSize = 8;
    mopt.spec = ConfidenceSpec{
        0.95, fused.cells[0].stat.relHalfWidth(confidenceZ(0.95)) *
                  1.41};
    CampaignEngine mengine({{b.profile.name, &b.prog, &lib}}, cfgs,
                           mopt);
    const CampaignResult stopped = mengine.run();
    std::uint64_t maxCell = 0;
    for (const CampaignCell &cell : stopped.cells)
        maxCell = std::max<std::uint64_t>(maxCell, cell.processed);
    std::printf("\nconfidence-stopped campaign: %zu/%zu cells "
                "retired early, %llu of %llu cell-replays migrated "
                "to unconverged cells (%.1f%%)\n",
                stopped.retirements, stopped.cells.size(),
                static_cast<unsigned long long>(
                    stopped.migratedReplays),
                static_cast<unsigned long long>(maxCell * K),
                100.0 * static_cast<double>(stopped.migratedReplays) /
                    static_cast<double>(
                        std::max<std::uint64_t>(maxCell * K, 1)));
    return 0;
}
