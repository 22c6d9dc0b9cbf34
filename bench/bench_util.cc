#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "util/log.hh"

namespace lpbench
{

using namespace lp;

BenchSettings
settings()
{
    BenchSettings s;
    if (const char *v = std::getenv("LP_BENCH_FULL"); v && v[0] == '1') {
        s.full = true;
        s.scale = 1.0;
        s.maxSampleSize = 2000;
    }
    if (const char *v = std::getenv("LP_BENCH_SCALE"))
        s.scale = std::atof(v);
    if (const char *v = std::getenv("LP_BENCH_MAXN"))
        s.maxSampleSize = std::strtoull(v, nullptr, 10);
    if (const char *v = std::getenv("LP_BENCH_CACHE"))
        s.cacheDir = v;
    if (const char *v = std::getenv("LP_BENCH_JSON"))
        s.jsonPath = v;
    if (const char *v = std::getenv("LP_BENCH_BUILD_THREADS"))
        s.buildThreads = static_cast<unsigned>(
            std::strtoul(v, nullptr, 10));
    if (s.buildThreads == 0)
        s.buildThreads = 1;
    std::filesystem::create_directories(s.cacheDir);
    return s;
}

std::vector<std::string>
quickSet()
{
    return {"perlbmk", "gcc-2", "gzip-1", "mcf",   "parser",
            "eon-2",   "swim",  "mgrid",  "ammp"};
}

namespace
{

PreparedBench
prepare(WorkloadProfile p, const BenchSettings &s)
{
    p.targetInsts = static_cast<InstCount>(
        static_cast<double>(p.targetInsts) * s.scale);
    if (p.targetInsts < 2'000'000)
        p.targetInsts = 2'000'000;
    // Keep the phase/reuse structure proportional to the scaled length
    // (see suite.cc) so MRRL warming fractions stay paper-like.
    p.phaseInsts = std::clamp<InstCount>(
        p.targetInsts / (400 * static_cast<InstCount>(p.phases)),
        5'000, 150'000);
    PreparedBench b;
    b.profile = p;
    b.prog = generateProgram(p);
    b.length = measureProgramLength(b.prog);
    return b;
}

} // namespace

std::vector<PreparedBench>
prepareSuite(const BenchSettings &s)
{
    std::vector<PreparedBench> out;
    if (s.full) {
        for (const WorkloadProfile &p : spec2kSuite())
            out.push_back(prepare(p, s));
    } else {
        for (const std::string &name : quickSet())
            out.push_back(prepare(findProfile(name), s));
    }
    return out;
}

PreparedBench
prepareOne(const std::string &name, const BenchSettings &s)
{
    return prepare(findProfile(name), s);
}

double
pilotCov(const PreparedBench &b, const CoreConfig &cfg,
         const BenchSettings &s)
{
    const std::string path =
        s.cacheDir + "/pilot-" + b.profile.name + "-" + cfg.name + "-" +
        std::to_string(b.length) + ".txt";
    if (FILE *f = std::fopen(path.c_str(), "r")) {
        double cov = 0.0;
        const int got = std::fscanf(f, "%lf", &cov);
        std::fclose(f);
        if (got == 1)
            return cov;
    }
    const SampleDesign pilot = SampleDesign::systematic(
        b.length, 40, 1000, cfg.detailedWarming);
    const SampledEstimate e = runSmarts(b.prog, cfg, pilot);
    const double cov = e.stat.cov();
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "%.9f\n", cov);
        std::fclose(f);
    }
    return cov;
}

std::uint64_t
sampleSize(const PreparedBench &b, const CoreConfig &cfg,
           const BenchSettings &s, ConfidenceSpec spec)
{
    std::uint64_t n = requiredSampleSize(pilotCov(b, cfg, s), spec);
    n = std::min(n, s.maxSampleSize);
    n = std::min(n, SampleDesign::maxCount(b.length, 1000,
                                           cfg.detailedWarming));
    return std::max<std::uint64_t>(n, minCltSample);
}

LivePointLibrary
cachedLibrary(const PreparedBench &b, const SampleDesign &design,
              const LivePointBuilderConfig &bc, const BenchSettings &s,
              BuilderStats *stats)
{
    LivePointBuilderConfig cfg = bc;
    cfg.buildThreads = s.buildThreads;

    std::string bpKeys;
    for (const BpredConfig &c : bc.bpredConfigs)
        bpKeys += "-" + c.key();
    // Sharded builds (S>1) are keyed separately: their warm state
    // differs from the exact full-warming library's.
    std::string shardKey;
    if (cfg.buildThreads > 1)
        shardKey = strfmt("-S%u", cfg.buildThreads);
    // Delta-chain variants and restricted-tier geometries store
    // different bytes: key them apart so a bench never replays the
    // wrong variant from cache.
    std::string encKey;
    if (cfg.deltaEncode)
        encKey += strfmt("-d%u", cfg.maxDeltaChain);
    const std::string path = strfmt(
        "%s/lib-%s-n%llu-w%llu-L2.%llu.%u%s%s%s.lpl", s.cacheDir.c_str(),
        b.profile.name.c_str(),
        static_cast<unsigned long long>(design.count),
        static_cast<unsigned long long>(design.warmLen),
        static_cast<unsigned long long>(bc.maxL2.sizeBytes),
        bc.maxL2.assoc, bpKeys.c_str(), shardKey.c_str(),
        encKey.c_str());
    if (std::filesystem::exists(path)) {
        try {
            LivePointLibrary lib = LivePointLibrary::load(path);
            if (lib.design() == design) {
                if (stats)
                    *stats = BuilderStats{};
                return lib;
            }
        } catch (const std::exception &) {
            // Unreadable cache entry (e.g. older format): rebuild.
        }
        // Stale cache entry (e.g. length changed): rebuild below.
    }
    LivePointBuilder builder(cfg);
    LivePointLibrary lib = builder.build(b.prog, design);
    if (stats)
        *stats = builder.stats();
    lib.save(path);
    return lib;
}

LivePointBuilderConfig
defaultBuilderConfig()
{
    LivePointBuilderConfig bc;
    const CoreConfig e8 = CoreConfig::eightWay();
    const CoreConfig s16 = CoreConfig::sixteenWay();
    bc.maxL1i = s16.mem.l1i;
    bc.maxL1d = s16.mem.l1d;
    bc.maxL2 = s16.mem.l2;
    bc.maxItlb = s16.mem.itlb;
    bc.maxDtlb = s16.mem.dtlb;
    bc.bpredConfigs = {e8.bpred, s16.bpred};
    return bc;
}

namespace
{

/** Read "<key>:  <n> kB" from /proc/self/status; 0 if absent. */
std::uint64_t
procStatusKb(const char *key)
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    const std::size_t keyLen = std::strlen(key);
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, key, keyLen) == 0 &&
            line[keyLen] == ':') {
            kb = std::strtoull(line + keyLen + 1, nullptr, 10);
            break;
        }
    }
    std::fclose(f);
    return kb;
}

} // namespace

std::uint64_t
peakRssBytes()
{
    if (const std::uint64_t kb = procStatusKb("VmHWM"))
        return kb * 1024;
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(ru.ru_maxrss); // bytes
#else
        return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
    }
#endif
    return 0;
}

std::vector<double>
bestPassSeconds(const std::vector<std::function<void()>> &legs)
{
    std::vector<double> best(legs.size(), 0.0);
    std::vector<double> elapsed(legs.size(), 0.0);
    std::vector<int> passes(legs.size(), 0);
    for (bool more = true; more;) {
        more = false;
        for (std::size_t i = 0; i < legs.size(); ++i) {
            if (elapsed[i] >= 0.25 && passes[i] >= 3)
                continue;
            const auto t0 = std::chrono::steady_clock::now();
            legs[i]();
            const double dt = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
            best[i] = passes[i] ? std::min(best[i], dt) : dt;
            elapsed[i] += dt;
            ++passes[i];
            more = true;
        }
    }
    return best;
}

std::string
fmtTime(double seconds)
{
    if (seconds < 0.001)
        return strfmt("%.2f ms", seconds * 1000.0);
    if (seconds < 120.0)
        return strfmt("%.2f s", seconds);
    if (seconds < 7200.0)
        return strfmt("%.1f m", seconds / 60.0);
    if (seconds < 48.0 * 3600.0)
        return strfmt("%.1f h", seconds / 3600.0);
    return strfmt("%.1f d", seconds / 86400.0);
}

std::string
fmtBytes(std::uint64_t bytes)
{
    if (bytes < 10ull * 1024)
        return strfmt("%llu B", static_cast<unsigned long long>(bytes));
    if (bytes < 10ull * 1024 * 1024)
        return strfmt("%.1f KB", static_cast<double>(bytes) / 1024.0);
    if (bytes < 10ull * 1024 * 1024 * 1024)
        return strfmt("%.1f MB",
                      static_cast<double>(bytes) / (1024.0 * 1024.0));
    return strfmt("%.1f GB",
                  static_cast<double>(bytes) /
                      (1024.0 * 1024.0 * 1024.0));
}

void
printHeader(const std::string &title)
{
    std::printf("\n");
    std::printf("==========================================================="
                "=====================\n");
    std::printf("  %s\n", title.c_str());
    std::printf("==========================================================="
                "=====================\n");
}

namespace
{

/** Pull `"key": <number>` out of a JSON blob; nan when absent. */
double
jsonNumber(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\"";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return std::nan("");
    std::size_t p = at + needle.size();
    while (p < json.size() && (json[p] == ':' || json[p] == ' '))
        ++p;
    return std::strtod(json.c_str() + p, nullptr);
}

std::string
readFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

} // namespace

bool
baselineGate(const char *bench, const char *defaultPath,
             std::initializer_list<GateMetric> metrics)
{
    const char *baseEnv = std::getenv("LP_BENCH_BASELINE");
    const std::string basePath = baseEnv ? baseEnv : defaultPath;
    if (basePath == "none") {
        std::printf("baseline gate skipped (LP_BENCH_BASELINE=none)\n");
        return true;
    }
    const std::string baseline = readFile(basePath);
    if (baseline.empty()) {
        std::printf("baseline gate skipped: '%s' not found (set "
                    "LP_BENCH_BASELINE, or run from the repo root)\n",
                    basePath.c_str());
        return true;
    }
    bool failed = false;
    for (const GateMetric &g : metrics) {
        const double base = jsonNumber(baseline, g.key);
        if (std::isnan(base) || base <= 0) {
            std::printf("baseline gate: '%s' missing from %s, "
                        "skipped\n",
                        g.key, basePath.c_str());
            continue;
        }
        const double rel = g.now / base;
        const bool ok = rel >= 0.9;
        std::printf("baseline gate: %-20s %8.3f vs %8.3f baseline "
                    "(%+.1f%%)%s\n",
                    g.key, g.now, base, (rel - 1.0) * 100.0,
                    ok ? "" : "  ** REGRESSION **");
        failed = failed || !ok;
    }
    if (failed)
        std::fprintf(stderr, "%s: >10%% regression against %s\n", bench,
                     basePath.c_str());
    return !failed;
}

} // namespace lpbench
