/**
 * @file
 * Ablation — replay hot path. Measures the three layers the hot-path
 * overhaul touched, on one library:
 *
 *  - **Decode throughput**: single-thread MB/s of the batched LZSS
 *    decoder over every compressed record, against the retained
 *    byte-at-a-time reference decoder on the same bytes in the same
 *    process, the two timed interleaved pass by pass. Their outputs
 *    are cross-checked bit-for-bit; the ratio (decode_speedup) is
 *    machine-normalized by construction and must stay >= 1.5x.
 *  - **Replay throughput**: single-thread decode+simulate points/s
 *    and cycles/point (rdtsc where available) through a pooled
 *    ReplayContext — the per-point cost everything downstream pays.
 *  - **Normalized replay**: points/s divided by the reference
 *    decoder's MB/s on the same machine, a machine-speed-normalized
 *    trajectory number comparable across runners.
 *
 * With LP_BENCH_JSON set, emits BENCH_6.json. The regression gate
 * compares the two normalized metrics (decode_speedup,
 * points_per_norm) against a committed baseline and fails the run on
 * a >10% regression:
 *
 *   LP_BENCH_BASELINE=path  baseline JSON (default
 *                           bench/BENCH_6.baseline.json, the CI
 *                           working-directory-relative committed
 *                           file); "none" skips the gate
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "bench_util.hh"
#include "codec/zip.hh"
#include "core/replay.hh"
#include "util/log.hh"

using namespace lp;
using namespace lpbench;

namespace
{

double
secSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::uint64_t
cycleCounter()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return 0;
#endif
}

} // namespace

int
main()
{
    setQuiet(true);
    const BenchSettings s = settings();
    printHeader("Ablation: replay hot path (gcc-2)");
    const PreparedBench b = prepareOne("gcc-2", s);
    const CoreConfig cfg = CoreConfig::eightWay();

    const std::uint64_t n = sampleSize(b, cfg, s);
    const SampleDesign design = SampleDesign::systematic(
        b.length, n, 1000, cfg.detailedWarming);
    const LivePointLibrary lib =
        cachedLibrary(b, design, defaultBuilderConfig(), s);

    // --- Decode: batched vs reference, bit-for-bit then MB/s -------
    Blob fast;
    Blob ref;
    for (std::size_t i = 0; i < lib.size(); ++i) {
        const ByteSpan rec = lib.record(i);
        zipDecompressInto(rec.data, rec.size, fast);
        zipDecompressReferenceInto(rec.data, rec.size, ref);
        if (fast != ref)
            panic("ablation_hotpath: batched decode of record %zu "
                  "differs from the reference decoder",
                  i);
    }
    // Each decoder's best full pass over every record, the two legs
    // interleaved so a swing in host speed hits both.
    std::uint64_t rawBytes = 0;
    for (std::size_t i = 0; i < lib.size(); ++i)
        rawBytes += lib.rawSize(i);
    const std::vector<double> best = bestPassSeconds({
        [&]() {
            for (std::size_t i = 0; i < lib.size(); ++i) {
                const ByteSpan rec = lib.record(i);
                zipDecompressInto(rec.data, rec.size, fast);
            }
        },
        [&]() {
            for (std::size_t i = 0; i < lib.size(); ++i) {
                const ByteSpan rec = lib.record(i);
                zipDecompressReferenceInto(rec.data, rec.size, ref);
            }
        },
    });
    const double mbpsBatched = static_cast<double>(rawBytes) / best[0] / 1e6;
    const double mbpsReference =
        static_cast<double>(rawBytes) / best[1] / 1e6;
    const double speedup = mbpsBatched / mbpsReference;

    // --- Replay: single-thread decode+simulate points/s ------------
    ReplayContext ctx(b.prog, cfg);
    LivePointDecodeScratch scratch;
    LivePoint point;
    // Warm pass: grows every pooled buffer to its high-water mark so
    // the measured passes run the steady (allocation-free) state.
    double cpiSum = 0.0;
    for (std::size_t i = 0; i < lib.size(); ++i) {
        lib.decodeInto(i, scratch, point);
        cpiSum += ctx.simulate(point).cpi;
    }
    double bestPps = 0.0;
    double bestCyclesPerPoint = 0.0;
    double elapsed = 0.0;
    int passes = 0;
    while (elapsed < 0.5 || passes < 2) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t c0 = cycleCounter();
        for (std::size_t i = 0; i < lib.size(); ++i) {
            lib.decodeInto(i, scratch, point);
            ctx.simulate(point);
        }
        const std::uint64_t c1 = cycleCounter();
        const double dt = secSince(t0);
        const double pps = static_cast<double>(lib.size()) / dt;
        if (pps > bestPps) {
            bestPps = pps;
            bestCyclesPerPoint = static_cast<double>(c1 - c0) /
                                 static_cast<double>(lib.size());
        }
        elapsed += dt;
        ++passes;
    }
    const double pointsPerNorm = bestPps / mbpsReference;

    std::printf("library: %llu points, %s compressed (%s raw), mean "
                "CPI %.3f\n\n",
                static_cast<unsigned long long>(lib.size()),
                fmtBytes(lib.totalCompressedBytes()).c_str(),
                fmtBytes(lib.totalUncompressedBytes()).c_str(),
                cpiSum / static_cast<double>(lib.size()));
    std::printf("decode   : batched %8.1f MB/s | reference %8.1f "
                "MB/s | speedup %.2fx\n",
                mbpsBatched, mbpsReference, speedup);
    std::printf("replay   : %8.1f points/s | %.0f cycles/point "
                "(decode + simulate, 1 thread)\n",
                bestPps, bestCyclesPerPoint);
    std::printf("normalized: %.3f points/s per reference-MB/s\n\n",
                pointsPerNorm);

    const std::string json = strfmt(
        "{\n  \"bench\": \"ablation_hotpath\",\n"
        "  \"benchmark\": \"%s\",\n  \"points\": %llu,\n"
        "  \"compressed_bytes\": %llu,\n  \"raw_bytes\": %llu,\n"
        "  \"decode_mbps_batched\": %.2f,\n"
        "  \"decode_mbps_reference\": %.2f,\n"
        "  \"decode_speedup\": %.3f,\n"
        "  \"points_per_sec\": %.2f,\n"
        "  \"cycles_per_point\": %.0f,\n"
        "  \"points_per_norm\": %.4f,\n"
        "  \"decode_identical\": true\n}\n",
        b.profile.name.c_str(),
        static_cast<unsigned long long>(lib.size()),
        static_cast<unsigned long long>(lib.totalCompressedBytes()),
        static_cast<unsigned long long>(lib.totalUncompressedBytes()),
        mbpsBatched, mbpsReference, speedup, bestPps,
        bestCyclesPerPoint, pointsPerNorm);
    if (writeBenchJson(s, json))
        std::printf("timings written to %s\n", s.jsonPath.c_str());

    // --- Regression gate --------------------------------------------
    // Hard floor first: the overhaul's acceptance target.
    if (speedup < 1.5)
        panic("ablation_hotpath: decode speedup %.2fx is below the "
              "1.5x floor",
              speedup);

    if (!baselineGate("ablation_hotpath", "bench/BENCH_6.baseline.json",
                      {{"decode_speedup", speedup},
                       {"points_per_norm", pointsPerNorm}}))
        return 1;
    std::printf("\nbatched decode reproduced the reference bytes on "
                "every record; normalized metrics within 10%% of "
                "baseline.\n");
    return 0;
}
