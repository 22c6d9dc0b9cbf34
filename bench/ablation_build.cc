/**
 * @file
 * Ablation — parallel live-point *creation* (the one-time cost the
 * paper amortises; Table 2 / Figure 8 economics). Measures build
 * throughput versus warming shards on one benchmark: instructions
 * warmed per second, points per second, compressed bytes per point,
 * and container save/load time. The single-shard pipelined build is
 * verified bit-identical to the sequential reference; sharded builds
 * trade a bounded (MRRL-licensed) warm-state bias at shard-leading
 * windows for near-linear creation speedup.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.hh"
#include "util/log.hh"

using namespace lp;
using namespace lpbench;

namespace
{

double
msSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main()
{
    setQuiet(true);
    const BenchSettings s = settings();
    printHeader("Ablation: parallel live-point creation (gcc-2, "
                "8-way+16-way maxima)");
    const PreparedBench b = prepareOne("gcc-2", s);
    const CoreConfig cfg = CoreConfig::eightWay();

    const std::uint64_t n = sampleSize(b, cfg, s);
    const SampleDesign design =
        SampleDesign::systematic(b.length, n, 1000, cfg.detailedWarming);
    const LivePointBuilderConfig bc = defaultBuilderConfig();

    // Sequential reference: the PR-2 build path (simulate, serialize,
    // and compress on one thread).
    LivePointBuilderConfig seqCfg = bc;
    seqCfg.buildThreads = 1;
    seqCfg.pipelineEncode = false;
    LivePointBuilder seqBuilder(seqCfg);
    const LivePointLibrary seqLib = seqBuilder.build(b.prog, design);
    const BuilderStats seqStats = seqBuilder.stats();

    std::printf("%8s | %12s %9s | %12s %10s | %11s\n", "shards",
                "wall", "speedup", "insts/s", "points/s", "bytes/pt");
    std::printf("%8s | %12s %9s | %12.3gM %10.1f | %11llu\n", "seq",
                fmtTime(seqStats.wallSeconds).c_str(), "1.00x",
                static_cast<double>(seqStats.instsSimulated) /
                    seqStats.wallSeconds / 1e6,
                static_cast<double>(n) / seqStats.wallSeconds,
                static_cast<unsigned long long>(
                    seqLib.totalCompressedBytes() / n));

    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        LivePointBuilderConfig cfg2 = bc;
        cfg2.buildThreads = shards;
        LivePointBuilder builder(cfg2);
        const LivePointLibrary lib = builder.build(b.prog, design);
        const BuilderStats st = builder.stats();
        const bool identical =
            shards == 1 && identicalRecords(lib, seqLib);
        // The pipelined build must reproduce the sequential library
        // byte for byte.
        if (shards == 1 && !identical)
            panic("ablation_build: pipelined S=1 build is not "
                  "bit-identical to the sequential reference");
        const double pps = static_cast<double>(n) / st.wallSeconds;
        std::printf("%8u | %12s %8.2fx | %12.3gM %10.1f | %11llu%s\n",
                    shards, fmtTime(st.wallSeconds).c_str(),
                    seqStats.wallSeconds / st.wallSeconds,
                    static_cast<double>(st.instsSimulated) /
                        st.wallSeconds / 1e6,
                    pps, static_cast<unsigned long long>(
                             lib.totalCompressedBytes() / n),
                    shards == 1 ? "  (bit-identical)" : "");
    }

    // Container I/O: streaming LPLIB3 save, zero-copy load.
    const std::string path = s.cacheDir + "/ablation-build-io.lpl";
    const auto tSave = std::chrono::steady_clock::now();
    seqLib.save(path);
    const double saveMs = msSince(tSave);
    const auto tLoad = std::chrono::steady_clock::now();
    const LivePointLibrary loaded = LivePointLibrary::load(path);
    const double loadMs = msSince(tLoad);
    const std::uint64_t fileBytes = std::filesystem::file_size(path);
    std::filesystem::remove(path);
    if (loaded.size() != seqLib.size() ||
        loaded.totalCompressedBytes() != seqLib.totalCompressedBytes())
        panic("ablation_build: container round-trip mismatch");
    std::printf("\ncontainer: %s on disk, save %.2f ms, load %.2f ms "
                "(LPLIB3, streamed write / zero-copy read)\n",
                fmtBytes(fileBytes).c_str(), saveMs, loadMs);

    std::printf("\nthe S=1 pipelined build is bit-identical to the "
                "sequential reference (encoding moves off the "
                "simulating thread); S>1 shards the warming pass over "
                "the pool with MRRL-bounded prefixes, so creation "
                "scales with cores the same way replay does.\n");
    return 0;
}
