#include "core/stratified.hh"

#include <algorithm>
#include <cmath>

#include "core/replay.hh"

namespace lp
{

namespace
{

constexpr std::size_t kMinPerStratum = 4; //!< pilot points per stratum
constexpr std::uint64_t kShuffleSeed = 29; //!< within-stratum order

} // namespace

StratifiedResult
runStratified(const Program &prog, const LivePointLibrary &lib,
              const CoreConfig &cfg, const StratifiedOptions &opt)
{
    StratifiedResult res;
    const std::size_t n = lib.size();
    if (n == 0)
        return res;

    const unsigned k =
        static_cast<unsigned>(std::clamp<std::size_t>(n / 25, 2, 12));
    res.strata = k;

    // Assign each stored record to a stratum by its window index
    // (program order), regardless of the library's stored order; the
    // index is library metadata, so no record is decompressed here.
    std::vector<std::vector<std::size_t>> queues(k);
    const std::uint64_t span =
        std::max<std::uint64_t>(lib.design().count, 1);
    for (std::size_t pos = 0; pos < n; ++pos) {
        const std::uint64_t idx = lib.windowIndex(pos);
        const std::size_t h = std::min<std::size_t>(
            static_cast<std::size_t>(idx * k / span), k - 1);
        queues[h].push_back(pos);
    }
    Rng rng(kShuffleSeed, "stratified");
    std::vector<double> weight(k, 0.0);
    for (unsigned h = 0; h < k; ++h) {
        auto &q = queues[h];
        for (std::size_t i = q.size(); i > 1; --i)
            std::swap(q[i - 1], q[rng.nextBounded(i)]);
        weight[h] = static_cast<double>(q.size()) /
                    static_cast<double>(n);
    }

    std::vector<RunningStat> strat(k);
    const double z = confidenceZ(opt.spec.level);

    ReplayEngineOptions ropt;
    ropt.threads = opt.threads;
    ReplayEngine engine(prog, {cfg}, ropt);

    // The greedy picks replay one at a time on this thread, each
    // depending on the last, so they take their own context.
    ReplayContext ctx(prog, cfg);
    LivePointDecodeScratch scratch;
    LivePoint point;
    auto measureFrom = [&](unsigned h) {
        const std::size_t pos = queues[h].back();
        queues[h].pop_back();
        lib.decodeInto(pos, scratch, point);
        strat[h].add(ctx.simulate(point).cpi);
        ++res.processed;
    };

    auto combined = [&](double &mean, double &se) {
        mean = 0.0;
        double var = 0.0;
        for (unsigned h = 0; h < k; ++h) {
            if (!strat[h].count())
                continue;
            mean += weight[h] * strat[h].mean();
            var += weight[h] * weight[h] * strat[h].variance() /
                   static_cast<double>(strat[h].count());
        }
        se = std::sqrt(var);
    };

    // Pilot: kMinPerStratum points per stratum, so the allocation
    // loop below has a variance estimate to work from. The
    // pilot set is fixed up front, so it runs on the engine pool;
    // folding in the same stratum-major order a sequential pilot
    // would use keeps the statistics — and thus every later greedy
    // decision — identical at any thread count.
    std::vector<std::size_t> pilotOrder;
    std::vector<unsigned> pilotStratum;
    for (unsigned h = 0; h < k; ++h) {
        for (std::size_t i = 0; i < kMinPerStratum && !queues[h].empty();
             ++i) {
            pilotOrder.push_back(queues[h].back());
            queues[h].pop_back();
            pilotStratum.push_back(h);
        }
    }
    if (!pilotOrder.empty()) {
        engine.run(
            lib, pilotOrder, pilotOrder.size(), false,
            [&](std::size_t i, const WindowResult *w) {
                strat[pilotStratum[i]].add(w->cpi);
                ++res.processed;
            },
            [](std::size_t) { return replayMaskAll(1); });
    }

    // Greedy Neyman allocation: always sample the stratum whose next
    // measurement reduces the combined variance the most.
    while (true) {
        double mean = 0.0;
        double se = 0.0;
        combined(mean, se);
        res.mean = mean;
        res.relHalfWidth =
            mean != 0.0 ? z * se / std::fabs(mean) : 0.0;
        if (res.processed >= minCltSample && mean != 0.0 &&
            res.relHalfWidth <= opt.spec.relativeError) {
            res.satisfied = true;
            break;
        }
        unsigned best = k;
        double bestGain = -1.0;
        for (unsigned h = 0; h < k; ++h) {
            if (queues[h].empty() || !strat[h].count())
                continue;
            const double nh = static_cast<double>(strat[h].count());
            const double gain = weight[h] * weight[h] *
                                strat[h].variance() / (nh * (nh + 1.0));
            if (gain > bestGain) {
                bestGain = gain;
                best = h;
            }
        }
        if (best == k)
            break; // library exhausted
        measureFrom(best);
    }
    return res;
}

} // namespace lp
