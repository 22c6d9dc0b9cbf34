/**
 * @file
 * create_library — command-line tool that generates a live-point
 * library for a named benchmark of the SPEC2K-analog suite and saves
 * it to disk (the paper's Figure 6, steps 1-3: size the sample, run
 * the one-time full-warming creation pass, shuffle).
 *
 * With --set <dir>, the shuffled library is appended to a sharded
 * fleet store (LibrarySet) instead of written as a standalone file —
 * run it once per benchmark to grow a multi-workload set a campaign
 * can open lazily, shard by shard.
 *
 * Checkpoint-economics options: --delta delta-encodes consecutive
 * points against their predecessor (it cuts bytes/point without
 * changing a single decoded bit), and --restricted stores only the
 * live state the 8-way Table 1 baseline consumes (the restricted
 * tier) instead of the full 16-way maxima — smaller, but it no longer
 * serves the 16-way configuration.
 *
 * Unknown options, a flag missing its value, and a second output path
 * are rejected with the usage text and exit status 1.
 *
 * Usage: create_library <benchmark> [output.lpl] [--n <windows>]
 *                       [--set <dir>] [--delta] [--restricted]
 *        create_library --list
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "core/builder.hh"
#include "core/library_set.hh"
#include "core/runners.hh"
#include "uarch/config.hh"
#include "util/log.hh"
#include "util/rng.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace lp;

static int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <benchmark> [output.lpl] [--n N] "
                 "[--set DIR] [--delta] [--restricted]\n"
                 "       %s --list\n",
                 argv0, argv0);
    return 1;
}

static int
run(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    if (std::strcmp(argv[1], "--list") == 0) {
        std::printf("available benchmarks:\n");
        for (const WorkloadProfile &p : spec2kSuite())
            std::printf("  %-10s %6.0fM instructions, %4llu MiB "
                        "footprint\n",
                        p.name.c_str(),
                        static_cast<double>(p.targetInsts) / 1e6,
                        static_cast<unsigned long long>(
                            p.footprintBytes >> 20));
        return 0;
    }

    const std::string name = argv[1];
    std::string output;
    std::string setDir;
    std::uint64_t forcedN = 0;
    bool delta = false;
    bool restricted = false;
    for (int i = 2; i < argc; ++i) {
        const bool hasValue = i + 1 < argc;
        if (std::strcmp(argv[i], "--n") == 0 && hasValue) {
            forcedN = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--set") == 0 && hasValue) {
            setDir = argv[++i];
        } else if (std::strcmp(argv[i], "--delta") == 0) {
            delta = true;
        } else if (std::strcmp(argv[i], "--restricted") == 0) {
            restricted = true;
        } else if (argv[i][0] != '-' && output.empty()) {
            output = argv[i];
        } else {
            std::fprintf(stderr, "%s: unexpected argument '%s'\n",
                         argv[0], argv[i]);
            return usage(argv[0]);
        }
    }
    if (output.empty())
        output = name + ".lpl";

    const WorkloadProfile profile = findProfile(name);
    inform("generating synthetic benchmark '%s'...", name.c_str());
    const Program prog = generateProgram(profile);
    const InstCount length = measureProgramLength(prog);
    inform("%s: %.1fM dynamic instructions",
           name.c_str(), static_cast<double>(length) / 1e6);

    const CoreConfig cfg8 = CoreConfig::eightWay();
    const CoreConfig cfg16 = CoreConfig::sixteenWay();

    // Step 1: measure baseline variance, choose the sample size.
    std::uint64_t n = forcedN;
    if (n == 0) {
        inform("step 1: measuring baseline CPI variance (pilot)...");
        const SampleDesign pilot = SampleDesign::systematic(
            length, 40, 1000, cfg8.detailedWarming);
        const SampledEstimate e = runSmarts(prog, cfg8, pilot);
        ConfidenceSpec spec;
        n = requiredSampleSize(e.stat.cov(), spec);
        const std::uint64_t fit = SampleDesign::maxCount(
            length, 1000, cfg16.detailedWarming);
        if (n > fit) {
            warn("required n=%llu capped to %llu (benchmark length)",
                 static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(fit));
            n = fit;
        }
        inform("pilot cov=%.3f -> n=%llu", e.stat.cov(),
               static_cast<unsigned long long>(n));
    }

    // Step 2: creation pass. The library stores warm state for both
    // Table 1 predictors and the 16-way cache maxima, so it serves
    // both configurations and everything smaller.
    const SampleDesign design = SampleDesign::systematic(
        length, n, 1000, cfg16.detailedWarming);
    LivePointBuilderConfig bc;
    bc.maxL1i = cfg16.mem.l1i;
    bc.maxL1d = cfg16.mem.l1d;
    bc.maxL2 = cfg16.mem.l2;
    bc.maxItlb = cfg16.mem.itlb;
    bc.maxDtlb = cfg16.mem.dtlb;
    bc.bpredConfigs = {cfg8.bpred, cfg16.bpred};
    if (restricted) {
        // Store only the live state the 8-way baseline consumes —
        // the restricted tier. Replaying the baseline stays exact
        // (LRU inclusion); the 16-way configuration is no longer
        // served by this library.
        bc = restrictedBuilderConfig({cfg8}, bc);
        inform("restricted tier: L2 maxima %lluKB %u-way",
               static_cast<unsigned long long>(
                   bc.maxL2.sizeBytes / 1024),
               bc.maxL2.assoc);
    }
    bc.deltaEncode = delta;
    LivePointBuilder builder(bc);
    inform("step 2: creating %llu live-points (one full-warming "
           "pass)...",
           static_cast<unsigned long long>(n));
    LivePointLibrary lib = builder.build(prog, design);
    inform("created in %.1fs: %.1f MB compressed (%.1f MB raw)",
           builder.stats().wallSeconds,
           static_cast<double>(lib.totalCompressedBytes()) / 1048576.0,
           static_cast<double>(lib.totalUncompressedBytes()) /
               1048576.0);

    // Step 3: shuffle on disk — standalone container, or appended as
    // one shard of a fleet store.
    Rng rng(profile.seed, "library-shuffle");
    lib.shuffle(rng);
    if (!setDir.empty()) {
        LibrarySetWriter writer(setDir);
        writer.addShard(name, lib);
        inform("step 3: shuffled library appended to set %s "
               "(%zu shard(s) total)",
               setDir.c_str(), writer.shards());
    } else {
        lib.save(output);
        inform("step 3: shuffled library written to %s",
               output.c_str());
    }
    return 0;
}

int
main(int argc, char **argv)
{
    // I/O failures (a full disk, an injected LP_FAILPOINTS fault)
    // carry path + strerror context — report and exit cleanly
    // instead of aborting through std::terminate.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "create_library: %s\n", e.what());
        return 1;
    }
}
