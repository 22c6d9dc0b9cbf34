#include "common.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "core/library_set.hh"
#include "util/log.hh"
#include "util/rng.hh"
#include "workload/profile.hh"

namespace pb
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

const std::vector<ShardDef> &
fleetShards()
{
    static const std::vector<ShardDef> shards = {
        {"mcf", true}, {"gcc-2", true}, {"eon-2", false}};
    return shards;
}

std::vector<lp::JobConfigSpec>
gridConfigs()
{
    return {
        {"eight", "eight", 0, 0, 0},
        {"sixteen", "sixteen", 0, 0, 0},
        {"eight", "eight-mem300", 300, 0, 0},
        {"sixteen", "sixteen-l2-1m", 0, 0, 1ull << 20},
    };
}

lp::CoreConfig
materialize(const lp::JobConfigSpec &c)
{
    lp::CoreConfig cfg = c.preset == "sixteen" ? lp::CoreConfig::sixteenWay()
                                               : lp::CoreConfig::eightWay();
    if (c.memLatency)
        cfg.mem.memLatency = c.memLatency;
    if (c.l2Latency)
        cfg.mem.l2Latency = c.l2Latency;
    if (c.l2SizeBytes)
        cfg.mem.l2.sizeBytes = c.l2SizeBytes;
    if (!c.name.empty())
        cfg.name = c.name;
    return cfg;
}

lp::JobSpec
gridSpec(std::uint64_t shuffleSeed, const std::string &name)
{
    lp::JobSpec s;
    s.name = name;
    for (const ShardDef &d : fleetShards())
        s.workloads.push_back({d.name, d.name, 0, 0});
    s.configs = gridConfigs();
    s.level = kLevel;
    s.relativeError = kRelativeError;
    s.stopAtConfidence = true;
    s.shuffleSeed = shuffleSeed;
    s.threads = kJobThreads;
    s.decodeThreads = kJobDecodeThreads;
    s.blockSize = kFoldBlock;
    return s;
}

std::uint64_t
nextSeed(lp::Rng &rng)
{
    std::uint64_t v = 0;
    while (v == 0)
        v = rng.next();
    return v;
}

std::vector<std::uint64_t>
gridSeeds(std::uint64_t seed, const std::string &stream,
          std::size_t count)
{
    lp::Rng rng(seed, stream);
    std::vector<std::uint64_t> out;
    while (out.size() < count)
        out.push_back(nextSeed(rng));
    return out;
}

FleetInputs
makeFleetInputs()
{
    FleetInputs in;
    const lp::CoreConfig s16 = lp::CoreConfig::sixteenWay();
    for (const ShardDef &d : fleetShards()) {
        in.programs.push_back(
            lp::generateProgram(lp::findProfile(d.name)));
        const lp::InstCount len =
            lp::measureProgramLength(in.programs.back());
        in.designs.push_back(lp::SampleDesign::systematic(
            len, kPointsPerShard, 1000, s16.detailedWarming));
    }
    return in;
}

lp::LivePointBuilderConfig
builderConfig(bool delta, unsigned threads)
{
    lp::LivePointBuilderConfig bc;
    const lp::CoreConfig e8 = lp::CoreConfig::eightWay();
    const lp::CoreConfig s16 = lp::CoreConfig::sixteenWay();
    bc.maxL1i = s16.mem.l1i;
    bc.maxL1d = s16.mem.l1d;
    bc.maxL2 = s16.mem.l2;
    bc.maxItlb = s16.mem.itlb;
    bc.maxDtlb = s16.mem.dtlb;
    bc.bpredConfigs = {e8.bpred, s16.bpred};
    bc.deltaEncode = delta;
    bc.buildThreads = threads;
    return bc;
}

FleetSummary
summarizeSet(const std::string &dir)
{
    const lp::LibrarySet set = lp::LibrarySet::open(dir);
    FleetSummary s;
    for (std::size_t i = 0; i < set.size(); ++i) {
        s.points += set.points(i);
        s.bytes += set.fileBytes(i);
        s.hashes[set.name(i)] = set.contentHash(i);
    }
    return s;
}

FleetSummary
buildExactFleet(const std::string &dir, const FleetInputs &in)
{
    const auto &shards = fleetShards();
    std::vector<lp::LivePointLibrary> libs(shards.size());
    std::vector<std::string> errors(shards.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        threads.emplace_back([&, i] {
            try {
                lp::LivePointBuilder b(builderConfig(shards[i].delta, 1));
                libs[i] = b.build(in.programs[i], in.designs[i]);
                lp::Rng rng(lp::findProfile(shards[i].name).seed,
                            "library-shuffle");
                libs[i].shuffle(rng);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &e : errors)
        if (!e.empty())
            throw std::runtime_error("fleet build: " + e);
    {
        lp::LibrarySetWriter w(dir);
        for (std::size_t i = 0; i < shards.size(); ++i)
            w.addShard(shards[i].name, libs[i]);
    }
    return summarizeSet(dir);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
tailQuantile(std::size_t n)
{
    double best = 0.0;
    for (double q : {0.5, 0.9, 0.99, 0.999})
        if (static_cast<double>(n) * (1.0 - q) >= 10.0)
            best = q;
    return best;
}

std::string
describeLatency(const std::vector<double> &v, const char *unit)
{
    std::string out = lp::strfmt("p50=%.4g %s", quantile(v, 0.5), unit);
    const double tq = tailQuantile(v.size());
    if (tq > 0.5)
        out += lp::strfmt(" p%g=%.4g %s", tq * 100.0, quantile(v, tq),
                          unit);
    out += lp::strfmt(" (n=%zu)", v.size());
    return out;
}

std::vector<std::string>
jsonTokens(const std::string &json, const std::string &key)
{
    std::vector<std::string> out;
    const std::string pat = "\"" + key + "\":";
    std::size_t p = 0;
    while ((p = json.find(pat, p)) != std::string::npos) {
        p += pat.size();
        while (p < json.size() && json[p] == ' ')
            ++p;
        std::size_t e = p;
        if (e < json.size() && json[e] == '"') {
            e = json.find('"', e + 1);
            if (e == std::string::npos)
                break;
            ++e;
        } else {
            while (e < json.size() && json[e] != ',' && json[e] != '}' &&
                   json[e] != ']' && json[e] != '\n')
                ++e;
        }
        out.push_back(json.substr(p, e - p));
        p = e;
    }
    return out;
}

std::vector<std::string>
jsonStrings(const std::string &json, const std::string &key)
{
    std::vector<std::string> out;
    for (const std::string &t : jsonTokens(json, key))
        if (t.size() >= 2 && t.front() == '"')
            out.push_back(t.substr(1, t.size() - 2));
    return out;
}

double
jsonNumber(const std::string &json, const std::string &key,
           double fallback)
{
    for (const std::string &t : jsonTokens(json, key)) {
        char *end = nullptr;
        const double v = std::strtod(t.c_str(), &end);
        if (end != t.c_str())
            return v;
    }
    return fallback;
}

void
makeDirs(const std::string &dir)
{
    std::filesystem::create_directories(dir);
}

void
removeTree(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

double
selfPeakRssMb()
{
    struct rusage ru
    {
    };
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace pb
