/**
 * @file
 * Ablation — Cache Set Record vs Memory Timestamp Record (Section 4.3,
 * Barr et al.): the MTR reconstructs arbitrary geometries but its
 * storage grows with the application's touched footprint; the CSR is
 * bounded by the chosen maximum tag array. This bench quantifies both
 * representations' serialised sizes and reconstruction times across
 * workload footprints.
 */

#include <chrono>
#include <cstdio>

#include "bench_util.hh"
#include "cache/warmstate.hh"
#include "codec/zip.hh"
#include "func/functional.hh"
#include "util/log.hh"

using namespace lp;
using namespace lpbench;

int
main()
{
    setQuiet(true);
    const BenchSettings s = settings();
    printHeader("Ablation: CSR vs MTR warm-state storage and "
                "reconstruction time");
    const CoreConfig cfg = CoreConfig::eightWay();

    std::printf("%10s | %12s %12s | %12s %12s | %12s\n", "footprint",
                "CSR bytes", "CSR rec(ms)", "MTR bytes", "MTR rec(ms)",
                "MTR/CSR");

    for (std::uint64_t mib : {1ull, 4ull, 16ull, 32ull}) {
        WorkloadProfile p = findProfile("gcc-2");
        p.name = strfmt("gcc2-%lluMiB", static_cast<unsigned long long>(mib));
        p.footprintBytes = mib << 20;
        p.targetInsts = static_cast<InstCount>(6'000'000 * s.scale * 4);
        const Program prog = generateProgram(p);

        FunctionalSimulator sim(prog);
        MemHierarchyConfig memCfg = cfg.mem;
        MemHierarchy hier(memCfg);
        MemoryTimestampRecord mtr(32);
        sim.setHierarchy(&hier);
        sim.setMtr(&mtr);
        sim.run(p.targetInsts);

        const CacheSetRecord csr(hier.l2());
        const Blob csrZ = zipCompress(csr.serialize());
        const Blob mtrZ = zipCompress(mtr.serialize());

        CacheModel target(cfg.mem.l2, "target");
        auto t0 = std::chrono::steady_clock::now();
        csr.reconstruct(target);
        const double csrMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        t0 = std::chrono::steady_clock::now();
        mtr.reconstruct(target);
        const double mtrMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();

        std::printf("%9lluM | %12s %12.2f | %12s %12.2f | %11.1fx\n",
                    static_cast<unsigned long long>(mib),
                    fmtBytes(csrZ.size()).c_str(), csrMs,
                    fmtBytes(mtrZ.size()).c_str(), mtrMs,
                    static_cast<double>(mtrZ.size()) /
                        static_cast<double>(csrZ.size()));
    }
    std::printf("\nshape: CSR storage is bounded by the maximum tag "
                "array (flat); MTR grows with the touched footprint — "
                "this is why live-points bound the maximum cache "
                "instead of storing an MTR.\n");
    return 0;
}
