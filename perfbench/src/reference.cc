#include "reference.hh"

#include <cmath>

#include "core/runners.hh"
#include "store/result_store.hh"
#include "util/log.hh"

namespace pb
{

namespace
{

constexpr std::size_t kGridCells = 12; // 3 shards x 4 configs

bool
allTokens(const std::vector<std::string> &v, const char *want)
{
    for (const std::string &t : v)
        if (t != want)
            return false;
    return true;
}

} // namespace

std::string
hexBits(double v)
{
    return lp::strfmt("%016llx",
                      static_cast<unsigned long long>(lp::doubleBits(v)));
}

std::vector<std::string>
checkGridReport(const std::string &json, bool memoized, std::string *why)
{
    std::vector<std::string> bits = jsonStrings(json, "cpi_bits");
    const std::vector<std::string> failed = jsonTokens(json, "failed");
    const std::vector<std::string> memo = jsonTokens(json, "memoized");
    if (bits.size() != kGridCells || failed.size() != kGridCells ||
        memo.size() != kGridCells)
        *why = lp::strfmt("%zu cells, want %zu", bits.size(), kGridCells);
    else if (!allTokens(failed, "false"))
        *why = "a cell failed";
    else if (jsonTokens(json, "cancelled") !=
             std::vector<std::string>{"false"})
        *why = "the job was cancelled";
    else if (!allTokens(memo, memoized ? "true" : "false"))
        *why = memoized ? "a resubmitted cell was not memoized"
                        : "a cold cell was memoized";
    else if (memoized && (jsonNumber(json, "replays_executed") != 0 ||
                          jsonNumber(json, "points_decoded") != 0))
        *why = "a memoized resubmit decoded or replayed points";
    return bits;
}

std::vector<lp::CampaignWorkload>
gridWorkloads(const lp::LibrarySet &set, const FleetInputs &in)
{
    std::vector<lp::CampaignWorkload> out;
    const auto &shards = fleetShards();
    for (std::size_t i = 0; i < shards.size(); ++i) {
        lp::CampaignWorkload w;
        w.name = shards[i].name;
        w.prog = &in.programs[i];
        w.set = &set;
        w.shard = set.find(shards[i].name);
        out.push_back(w);
    }
    return out;
}

std::vector<lp::CoreConfig>
gridCoreConfigs()
{
    std::vector<lp::CoreConfig> out;
    for (const lp::JobConfigSpec &c : gridConfigs())
        out.push_back(materialize(c));
    return out;
}

lp::CampaignOptions
gridOptions(std::uint64_t seed, unsigned threads, unsigned decodeThreads)
{
    const lp::JobSpec spec = gridSpec(seed, "");
    lp::CampaignOptions o;
    o.spec.level = spec.level;
    o.spec.relativeError = spec.relativeError;
    o.stopAtConfidence = spec.stopAtConfidence;
    o.approxWrongPath = spec.approxWrongPath;
    o.shuffleSeed = spec.shuffleSeed;
    o.threads = threads;
    o.decodeThreads = decodeThreads;
    o.blockSize = static_cast<std::size_t>(spec.blockSize);
    return o;
}

ReferenceGrid
referenceGrid(const lp::LibrarySet &set, const FleetInputs &in,
              std::uint64_t seed)
{
    lp::CampaignEngine eng(gridWorkloads(set, in), gridCoreConfigs(),
                           gridOptions(seed, kBuildThreads, 0));
    const lp::CampaignResult res = eng.run();
    ReferenceGrid out;
    for (const lp::CampaignCell &c : res.cells)
        out.bits.push_back(hexBits(c.cpi()));
    out.folded = static_cast<double>(res.foldedReplays);
    return out;
}

bool
smokeMatchesSmarts(const lp::LibrarySet &set, const FleetInputs &in,
                   std::string *message)
{
    const std::size_t i = 2; // eon-2
    const std::string name = fleetShards()[i].name;
    const lp::CoreConfig cfg = materialize(gridConfigs()[0]);
    const lp::SampledEstimate smarts =
        lp::runSmarts(in.programs[i], cfg, in.designs[i]);
    lp::LivePointRunOptions opt;
    opt.threads = kBuildThreads;
    const lp::LivePointRunResult lp = lp::runLivePoints(
        in.programs[i], set.shard(set.find(name)), cfg, opt);
    const double rel =
        std::fabs(lp.cpi() - smarts.cpi()) / std::fabs(smarts.cpi());
    const bool ok = lp.processed == in.designs[i].count && rel <= 1e-9;
    *message = lp::strfmt(
        "smoke %s/%s: live-point CPI %.12f over %zu points vs SMARTS full "
        "warming %.12f (relative difference %.2e): %s",
        name.c_str(), cfg.name.c_str(), lp.cpi(), lp.processed,
        smarts.cpi(), rel, ok ? "exact" : "MISMATCH");
    return ok;
}

} // namespace pb
