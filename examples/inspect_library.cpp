/**
 * @file
 * inspect_library — dump the contents of a live-point library file:
 * header metadata, the bytes mapped to hold it (paged in on demand,
 * never copied to the heap), aggregate sizes, and per-section byte
 * breakdowns (the Figure 7 view of your own library). With --verify,
 * walks every record and cross-checks its decode against the index
 * table (rawSize, windowIndex) and the canonical re-encoding —
 * exiting nonzero if any record is damaged — and reports per-record
 * decode latency (avg/min/max ns) plus aggregate decode MB/s, the
 * quick health read on the codec hot path. Useful when deciding the
 * maximum cache/predictor configuration a library should bake in,
 * and as an integrity pass over archived libraries.
 *
 * Usage: inspect_library <library.lpl> [--points N] [--verify]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "core/library.hh"
#include "stats/running_stat.hh"
#include "util/log.hh"

using namespace lp;

static int
run(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <library.lpl> [--points N] "
                     "[--verify]\n",
                     argv[0]);
        return 1;
    }
    std::size_t showPoints = 5;
    bool verify = false;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--points") == 0 && i + 1 < argc)
            showPoints = std::strtoull(argv[++i], nullptr, 10);
        else if (std::strcmp(argv[i], "--verify") == 0)
            verify = true;
    }

    const LivePointLibrary lib = LivePointLibrary::load(argv[1]);
    const SampleDesign &d = lib.design();

    std::printf("library            %s\n", argv[1]);
    std::printf("mapped             %.2f MB, paged on demand\n",
                static_cast<double>(lib.backingBytes()) / 1048576.0);
    std::printf("benchmark          %s\n", lib.benchmark().c_str());
    std::printf("live-points        %zu\n", lib.size());
    std::printf("benchmark length   %.1fM instructions\n",
                static_cast<double>(d.benchLength) / 1e6);
    std::printf("window             %llu warm + %llu measure "
                "instructions\n",
                static_cast<unsigned long long>(d.warmLen),
                static_cast<unsigned long long>(d.measureLen));
    std::printf("sampling period    %llu instructions\n",
                static_cast<unsigned long long>(d.period()));
    std::printf("compressed size    %.2f MB (%.2f MB raw, %.1f:1)\n",
                static_cast<double>(lib.totalCompressedBytes()) / 1048576.0,
                static_cast<double>(lib.totalUncompressedBytes()) /
                    1048576.0,
                static_cast<double>(lib.totalUncompressedBytes()) /
                    static_cast<double>(
                        std::max<std::uint64_t>(
                            lib.totalCompressedBytes(), 1)));
    if (lib.deltaCount() > 0)
        std::printf("checkpoint econ    %zu/%zu delta records\n",
                    lib.deltaCount(), lib.size());

    if (lib.size() == 0)
        return 0;

    // --verify: decode every record, letting the library's
    // index-table cross-checks (rawSize, windowIndex) fire, and
    // additionally require the decoded point to re-encode to exactly
    // the stored raw bytes (the encoding is canonical, so any
    // payload damage that still parses shows up here).
    if (verify) {
        LivePointDecodeScratch scratch;
        LivePoint pt;
        std::size_t bad = 0;
        RunningStat decodeNs;
        std::uint64_t decodedBytes = 0;
        double decodeSeconds = 0.0;
        for (std::size_t i = 0; i < lib.size(); ++i) {
            try {
                const auto t0 = std::chrono::steady_clock::now();
                lib.decodeInto(i, scratch, pt);
                const double dt =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                decodeNs.add(dt * 1e9);
                decodeSeconds += dt;
                decodedBytes += lib.rawSize(i);
                if (pt.serialize() != scratch.payload)
                    throw std::runtime_error(
                        "re-encode differs from stored bytes");
            } catch (const std::exception &e) {
                ++bad;
                std::fprintf(stderr, "record %zu: BAD (%s)\n", i,
                             e.what());
            }
        }
        std::printf("\nverify             %zu/%zu records ok "
                    "(decode + rawSize/windowIndex/re-encode "
                    "cross-checks)\n",
                    lib.size() - bad, lib.size());
        std::printf("decode time        %.0f ns/record avg (min %.0f, "
                    "max %.0f), %.1f MB/s aggregate\n",
                    decodeNs.mean(), decodeNs.min(), decodeNs.max(),
                    decodeSeconds > 0.0
                        ? static_cast<double>(decodedBytes) /
                              decodeSeconds / 1e6
                        : 0.0);
        if (bad)
            return 1;
    }

    // Aggregate per-section statistics over the whole library.
    RunningStat total;
    RunningStat memData;
    RunningStat l2Tags;
    RunningStat bpred;
    LivePointDecodeScratch firstScratch;
    LivePoint first;
    lib.decodeInto(0, firstScratch, first);
    std::printf("\nmaximum geometry   L2 %lluKB %u-way (line %llu); "
                "%zu predictor image(s):\n",
                static_cast<unsigned long long>(
                    first.l2.maxGeometry().sizeBytes / 1024),
                first.l2.maxGeometry().assoc,
                static_cast<unsigned long long>(
                    first.l2.maxGeometry().lineBytes),
                first.bpredImages.size());
    for (const auto &kv : first.bpredImages)
        std::printf("                   - %s\n", kv.first.c_str());

    LivePointDecodeScratch scratch;
    LivePoint pt;
    for (std::size_t i = 0; i < lib.size(); ++i) {
        lib.decodeInto(i, scratch, pt);
        const LivePointBreakdown b = pt.breakdown();
        total.add(static_cast<double>(b.total));
        memData.add(static_cast<double>(b.memData));
        l2Tags.add(static_cast<double>(b.l2Tags));
        bpred.add(static_cast<double>(b.bpred));
    }
    std::printf("\nper-point (uncompressed) bytes  avg        min        "
                "max\n");
    auto row = [](const char *label, const RunningStat &s) {
        std::printf("  %-22s %10.0f %10.0f %10.0f\n", label, s.mean(),
                    s.min(), s.max());
    };
    row("total", total);
    row("memory data", memData);
    row("L2 tags", l2Tags);
    row("branch predictors", bpred);

    std::printf("\nfirst %zu points (in stored order):\n",
                std::min(showPoints, lib.size()));
    std::printf("  %6s %12s %12s %10s %6s\n", "rec", "window idx",
                "win start", "zipped B", "enc");
    for (std::size_t i = 0; i < std::min(showPoints, lib.size()); ++i) {
        lib.decodeInto(i, scratch, pt);
        const std::uint8_t f = lib.recordFlags(i);
        std::printf("  %6zu %12llu %12llu %10zu %6s\n", i,
                    static_cast<unsigned long long>(pt.index),
                    static_cast<unsigned long long>(pt.windowStart),
                    lib.compressedSize(i),
                    (f & LivePointLibrary::kFlagDelta) ? "delta"
                                                       : "plain");
    }
    return 0;
}

int
main(int argc, char **argv)
{
    // A corrupt or unreadable library throws with path + strerror
    // context — report and exit cleanly instead of aborting.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "inspect_library: %s\n", e.what());
        return 1;
    }
}
