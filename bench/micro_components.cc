/**
 * @file
 * google-benchmark microbenchmarks of the framework's hot components:
 * the codecs (DER + zlib) that bound live-point load time, the cache
 * and branch-predictor models that bound warming speed, the functional
 * simulator, and the detailed core (the floor of all sampled
 * simulation, per the paper's conclusion: "live-points reduce
 * simulation time to the limit imposed by detailed simulation").
 */

#include <benchmark/benchmark.h>

#include "bpred/bpred.hh"
#include "cache/cache.hh"
#include "cache/warmstate.hh"
#include "codec/der.hh"
#include "codec/zip.hh"
#include "func/functional.hh"
#include "func/warming.hh"
#include "mem/memport.hh"
#include "uarch/config.hh"
#include "uarch/core.hh"
#include "util/rng.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace
{

using namespace lp;

void
BM_DerEncode(benchmark::State &state)
{
    for (auto _ : state) {
        DerWriter w;
        w.beginSequence();
        for (int i = 0; i < 1000; ++i)
            w.putUint(0x123456789aull + static_cast<std::uint64_t>(i));
        w.endSequence();
        benchmark::DoNotOptimize(w.finish().size());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DerEncode);

void
BM_DerDecode(benchmark::State &state)
{
    DerWriter w;
    w.beginSequence();
    for (int i = 0; i < 1000; ++i)
        w.putUint(0x123456789aull + static_cast<std::uint64_t>(i));
    w.endSequence();
    const Blob data = w.finish();
    for (auto _ : state) {
        DerReader top(data);
        DerReader seq = top.getSequence();
        std::uint64_t sum = 0;
        while (!seq.atEnd())
            sum += seq.getUint();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DerDecode);

void
BM_ZipCompress(benchmark::State &state)
{
    Rng rng(1);
    Blob data(256 * 1024);
    // Semi-compressible content (like live-point tag payloads).
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>((i >> 4) ^ (rng.next() & 3));
    for (auto _ : state)
        benchmark::DoNotOptimize(zipCompress(data).size());
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_ZipCompress);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheModel cache({1024 * 1024, 4, 128}, "L2");
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.nextBounded(16 << 20), false).hit);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CsrReconstruct(benchmark::State &state)
{
    CacheModel maxCache({4 * 1024 * 1024, 8, 128}, "max");
    Rng rng(9);
    for (int i = 0; i < 200000; ++i)
        maxCache.access(rng.nextBounded(64 << 20), rng.nextBool(0.3));
    const CacheSetRecord csr(maxCache);
    CacheModel target({1024 * 1024, 4, 128}, "tgt");
    for (auto _ : state)
        csr.reconstruct(target);
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(csr.entryCount()));
}
BENCHMARK(BM_CsrReconstruct);

void
BM_BpredWarm(benchmark::State &state)
{
    BranchPredictor bp(BpredConfig{});
    Rng rng(11);
    Instruction br;
    br.op = Opcode::Bne;
    br.target = 10;
    for (auto _ : state) {
        const PcIndex pc = rng.nextBounded(4096);
        bp.warmBranch(pc, br, rng.nextBool(0.6), 10);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BpredWarm);

void
BM_FunctionalSim(benchmark::State &state)
{
    const Program prog = generateProgram(tinyProfile(10'000'000, 1));
    auto sim = std::make_unique<FunctionalSimulator>(prog);
    for (auto _ : state) {
        if (sim->finished()) {
            state.PauseTiming();
            sim = std::make_unique<FunctionalSimulator>(prog);
            state.ResumeTiming();
        }
        sim->run(10000);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_FunctionalSim);

/**
 * Program::fetch alone, the per-instruction floor under every layer
 * that executes instructions. Arg 0 walks a sequential window through
 * chunk boundaries (the functional simulator's and the core's access
 * pattern); arg 1 fetches seeded random indices over the whole
 * program.
 */
void
BM_ProgramFetch(benchmark::State &state)
{
    const Program prog = generateProgram(findProfile("gcc-2"));
    const bool random = state.range(0) != 0;
    std::vector<InstCount> drawn(1 << 16);
    Rng rng(13, "bm-fetch");
    for (InstCount &i : drawn)
        i = rng.nextBounded(prog.length);
    std::size_t pos = 0;
    InstCount next = 0;
    for (auto _ : state) {
        InstCount i;
        if (random) {
            i = drawn[pos];
            pos = (pos + 1) & (drawn.size() - 1);
        } else {
            i = next;
            next = next + 1 < prog.length ? next + 1 : 0;
        }
        const Instruction ins = prog.fetch(i);
        benchmark::DoNotOptimize(ins);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProgramFetch)->ArgName("random")->Arg(0)->Arg(1);

void
BM_FunctionalWarming(benchmark::State &state)
{
    const Program prog = generateProgram(tinyProfile(10'000'000, 2));
    const CoreConfig cfg = CoreConfig::eightWay();
    MemHierarchy hier(cfg.mem);
    BranchPredictor bp(cfg.bpred);
    auto sim = std::make_unique<FunctionalSimulator>(prog);
    auto fw = std::make_unique<FunctionalWarming>(*sim);
    fw->attachHierarchy(&hier);
    fw->attachPredictor(&bp);
    for (auto _ : state) {
        if (sim->finished()) {
            state.PauseTiming();
            sim = std::make_unique<FunctionalSimulator>(prog);
            fw = std::make_unique<FunctionalWarming>(*sim);
            fw->attachHierarchy(&hier);
            fw->attachPredictor(&bp);
            state.ResumeTiming();
        }
        fw->warm(10000);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_FunctionalWarming);

void
BM_DetailedCore(benchmark::State &state)
{
    const Program prog = generateProgram(tinyProfile(10'000'000, 3));
    const CoreConfig cfg = CoreConfig::eightWay();
    SparseMemory mem;
    mem.writeBytes(prog.dataBase, prog.dataInit.data(),
                   prog.dataInit.size());
    DirectMemPort port(mem);
    MemHierarchy hier(cfg.mem);
    BranchPredictor bp(cfg.bpred);
    CoreBindings b;
    b.prog = &prog;
    b.mem = &port;
    b.hier = &hier;
    b.bp = &bp;
    auto core = std::make_unique<OoOCore>(cfg, b);
    for (auto _ : state) {
        if (core->programEnded()) {
            state.PauseTiming();
            core = std::make_unique<OoOCore>(cfg, b);
            state.ResumeTiming();
        }
        core->commitRun(5000);
    }
    state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_DetailedCore);

} // namespace

BENCHMARK_MAIN();
