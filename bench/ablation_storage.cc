/**
 * @file
 * Ablation — library storage. Measures the mapped container's load
 * time and replay throughput, plus process RSS; the mapped load must
 * reproduce the in-memory build's estimate to the bit (the storage
 * layer may never change results, only where bytes live). Also
 * exercises the sharded fleet store: lazy open, shard replay
 * identity, and mapped-bytes accounting.
 *
 * The checkpoint-economics section builds the same design two ways —
 * plain and delta-chained — and measures bytes/point on disk,
 * stored-order decode MB/s, replays/s and records decoded per point
 * (informational) for each, verifying both replay bit-identically.
 * The delta variant must cut bytes/point by >= 2x (hard floor), and the
 * machine-normalized metrics (bytes_per_point_cut, decode_norm,
 * replay_norm) gate against a committed baseline in the BENCH_6
 * style:
 *
 *   LP_BENCH_JSON=path      write the checkpoint-economics numbers
 *                           (CI publishes them as BENCH_10.json)
 *   LP_BENCH_BASELINE=path  baseline JSON (default
 *                           bench/BENCH_10.baseline.json); "none"
 *                           skips the gate
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/library_set.hh"
#include "core/runners.hh"
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

/** Estimates must match to the bit, not to a tolerance. */
bool
sameResult(const LivePointRunResult &a, const LivePointRunResult &b)
{
    return a.processed == b.processed && a.cpi() == b.cpi() &&
           a.finalSnapshot.relHalfWidth ==
               b.finalSnapshot.relHalfWidth &&
           a.unavailableLoads == b.unavailableLoads;
}

} // namespace

int
main()
{
    setQuiet(true);
    const BenchSettings s = settings();
    printHeader("Ablation: library storage (gcc-2)");
    const PreparedBench b = prepareOne("gcc-2", s);
    const CoreConfig cfg = CoreConfig::eightWay();

    const std::uint64_t n = sampleSize(b, cfg, s);
    const SampleDesign design = SampleDesign::systematic(
        b.length, n, 1000, cfg.detailedWarming);
    const LivePointLibrary built =
        cachedLibrary(b, design, defaultBuilderConfig(), s);

    const std::string path = s.cacheDir + "/ablation-storage.lpl";
    built.save(path);
    const std::uint64_t fileBytes = std::filesystem::file_size(path);

    // All runs share one fixed block size so their fold trees — and
    // therefore their bits — are comparable.
    LivePointRunOptions ropt;
    ropt.blockSize = 8;
    ropt.shuffleSeed = 7;

    // The reference: the in-memory build.
    const LivePointRunResult ref = runLivePoints(b.prog, built, cfg, ropt);

    std::printf("library: %llu points, %s on disk\n\n",
                static_cast<unsigned long long>(n),
                fmtBytes(fileBytes).c_str());
    std::printf("%9s | %10s | %10s | %10s\n", "load ms", "replays/s",
                "mapped", "peak RSS");
    {
        const auto tLoad = std::chrono::steady_clock::now();
        const LivePointLibrary lib = LivePointLibrary::load(path);
        const double loadMs = msSince(tLoad);
        const LivePointRunResult r =
            runLivePoints(b.prog, lib, cfg, ropt);
        if (!sameResult(r, ref))
            panic("ablation_storage: the loaded library changed the "
                  "estimate");
        const double rps =
            static_cast<double>(r.processed) / r.wallSeconds;
        std::printf("%9.3f | %10.1f | %10s | %10s\n", loadMs, rps,
                    fmtBytes(lib.backingBytes()).c_str(),
                    fmtBytes(peakRssBytes()).c_str());
    }

    // The sharded fleet store: open lazily, replay one shard, leave
    // the other untouched.
    const std::string setDir = s.cacheDir + "/ablation-storage-set";
    std::filesystem::remove_all(setDir);
    {
        LibrarySetWriter writer(setDir);
        writer.addShard("gcc-2", built);
        writer.addShard("gcc-2-alt", built);
    }
    const LibrarySet set = LibrarySet::open(setDir);
    const bool lazyOk = set.loadedCount() == 0;
    const LivePointRunResult sr =
        runLivePoints(b.prog, set.shard(0), cfg, ropt);
    if (!sameResult(sr, ref))
        panic("ablation_storage: fleet-store shard replay changed "
              "the estimate");
    const bool oneShard = set.loadedCount() == 1;
    if (!lazyOk || !oneShard)
        panic("ablation_storage: fleet store opened shards eagerly");
    std::printf("\nfleet store: %zu shards, %zu opened for a one-shard "
                "replay (%s mapped)\n",
                set.size(), set.loadedCount(),
                fmtBytes(set.mappedBytes()).c_str());

    // --- Checkpoint economics: delta chains -------------------------
    // The same design built two ways. Encoding may only change where
    // bytes go, never a decoded bit — both variants must reproduce the
    // reference estimate exactly.
    std::printf("\ncheckpoint economics (same design, two "
                "encodings):\n");
    std::printf("%14s | %10s | %11s | %10s | %10s | %9s\n", "encoding",
                "file B/pt", "decode MB/s", "replays/s", "delta recs",
                "recs/pt");

    LivePointBuilderConfig bcDelta = defaultBuilderConfig();
    bcDelta.deltaEncode = true;
    const LivePointLibrary deltaLib =
        cachedLibrary(b, design, bcDelta, s);

    struct Variant
    {
        const char *name;
        const LivePointLibrary *lib;
        double bytesPerPoint = 0.0;
        double decodeMbps = 0.0;
        double rps = 0.0;
        double recordsPerPoint = 0.0; //!< decode work per visit
    };
    Variant variants[] = {{"plain", &built}, {"delta", &deltaLib}};
    for (Variant &v : variants) {
        const std::string vpath =
            s.cacheDir + "/ablation-storage-econ.lpl";
        v.lib->save(vpath);
        v.bytesPerPoint =
            static_cast<double>(std::filesystem::file_size(vpath)) /
            static_cast<double>(n);
        std::filesystem::remove(vpath);
    }

    // Decode MB/s is each leg's best stored-order pass through the
    // replay-facing decodeInto path (the chain cache makes this the
    // pattern a streaming replay pays), the two legs interleaved;
    // replays/s is the best of 2 runs (damping scheduler noise), and
    // records decoded per point counts keyframes and chain links.
    LivePointDecodeScratch scratches[2];
    LivePoint points[2];
    std::vector<std::function<void()>> legs;
    for (std::size_t i = 0; i < 2; ++i)
        legs.push_back([&, i]() {
            const LivePointLibrary &lib = *variants[i].lib;
            for (std::size_t r = 0; r < lib.size(); ++r)
                lib.decodeInto(r, scratches[i], points[i]);
        });
    const std::vector<double> best = bestPassSeconds(legs);
    for (std::size_t i = 0; i < 2; ++i) {
        std::uint64_t rawBytes = 0;
        for (std::size_t r = 0; r < variants[i].lib->size(); ++r)
            rawBytes += variants[i].lib->rawSize(r);
        variants[i].decodeMbps =
            static_cast<double>(rawBytes) / best[i] / 1e6;
    }
    for (int pass = 0; pass < 2; ++pass) {
        for (Variant &v : variants) {
            const LivePointRunResult r =
                runLivePoints(b.prog, *v.lib, cfg, ropt);
            if (!sameResult(r, ref))
                panic("ablation_storage: encoded-library replay "
                      "changed the estimate");
            v.rps = std::max(v.rps, static_cast<double>(r.processed) /
                                        r.wallSeconds);
            v.recordsPerPoint =
                static_cast<double>(r.recordsDecoded) /
                static_cast<double>(
                    std::max<std::uint64_t>(r.pointsDecoded, 1));
        }
    }
    for (const Variant &v : variants)
        std::printf("%14s | %10.0f | %11.1f | %10.1f | %10zu | %9.2f\n",
                    v.name, v.bytesPerPoint, v.decodeMbps, v.rps,
                    v.lib->deltaCount(), v.recordsPerPoint);

    const double bppCut =
        variants[0].bytesPerPoint / variants[1].bytesPerPoint;
    const double decodeNorm =
        variants[1].decodeMbps / variants[0].decodeMbps;
    const double replayNorm = variants[1].rps / variants[0].rps;
    std::printf("bytes/point cut %.2fx, decode norm %.2f, replay norm "
                "%.2f\n",
                bppCut, decodeNorm, replayNorm);

    // BENCH_10: the checkpoint-economics trajectory numbers.
    const std::string econJson = strfmt(
        "{\n  \"bench\": \"ablation_storage_econ\",\n"
        "  \"benchmark\": \"%s\",\n  \"points\": %llu,\n"
        "  \"bytes_per_point_plain\": %.1f,\n"
        "  \"bytes_per_point_delta\": %.1f,\n"
        "  \"bytes_per_point_cut\": %.3f,\n"
        "  \"delta_records\": %zu,\n"
        "  \"decode_mbps_plain\": %.2f,\n"
        "  \"decode_mbps_delta\": %.2f,\n"
        "  \"decode_norm\": %.4f,\n"
        "  \"replays_per_sec_plain\": %.2f,\n"
        "  \"replays_per_sec_delta\": %.2f,\n"
        "  \"replay_norm\": %.4f,\n"
        "  \"records_per_point_plain\": %.3f,\n"
        "  \"records_per_point_delta\": %.3f,\n"
        "  \"identical\": true\n}\n",
        b.profile.name.c_str(), static_cast<unsigned long long>(n),
        variants[0].bytesPerPoint, variants[1].bytesPerPoint, bppCut,
        deltaLib.deltaCount(), variants[0].decodeMbps,
        variants[1].decodeMbps, decodeNorm, variants[0].rps,
        variants[1].rps, replayNorm, variants[0].recordsPerPoint,
        variants[1].recordsPerPoint);
    if (writeBenchJson(s, econJson))
        std::printf("economics written to %s\n", s.jsonPath.c_str());

    std::filesystem::remove_all(setDir);
    std::filesystem::remove(path);

    // --- Regression gates -------------------------------------------
    // Hard floor first: the checkpoint-economics acceptance target.
    if (bppCut < 2.0)
        panic("ablation_storage: delta bytes/point cut %.2fx is "
              "below the 2x floor",
              bppCut);

    if (!baselineGate("ablation_storage", "bench/BENCH_10.baseline.json",
                      {{"bytes_per_point_cut", bppCut},
                       {"decode_norm", decodeNorm},
                       {"replay_norm", replayNorm}}))
        return 1;

    std::printf("\nthe mapped load, the fleet-store shard and both "
                "encoding variants reproduced the in-memory build's "
                "estimate to the bit; only where (and how many) bytes "
                "live differs.\n");
    return 0;
}
