/**
 * @file
 * google-benchmark microbenchmarks of the framework's hot components:
 * the codecs (DER + zlib) that bound live-point load time, the cache
 * and branch-predictor models that bound warming speed, the functional
 * simulator, the detailed core (the floor of all sampled
 * simulation, per the paper's conclusion: "live-points reduce
 * simulation time to the limit imposed by detailed simulation"), and
 * one point's replay fanned out to a design-space grid, and the MRRL
 * analysis that sizes a sharded build's warming prefixes.
 */

#include <benchmark/benchmark.h>

#include "bpred/bpred.hh"
#include "cache/cache.hh"
#include "cache/warmstate.hh"
#include "codec/der.hh"
#include "codec/zip.hh"
#include "core/builder.hh"
#include "core/replay.hh"
#include "func/functional.hh"
#include "mem/memport.hh"
#include "mrrl/mrrl.hh"
#include "uarch/config.hh"
#include "uarch/core.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"
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

/** A 4 MB/8-way L2 record (the library maximum) of a random stream. */
CacheSetRecord
maxL2Record()
{
    CacheModel maxCache({4 * 1024 * 1024, 8, 128}, "max");
    Rng rng(9);
    for (int i = 0; i < 200000; ++i)
        maxCache.access(rng.nextBounded(64 << 20), rng.nextBool(0.3));
    return CacheSetRecord(maxCache);
}

/**
 * Installing the maximum L2 record into each L2 geometry a dse-cold
 * grid reconstructs: arg 0 = 1 MB/4-way, 1 = 4 MB/8-way (the
 * maximum itself), 2 = 1 MB/8-way.
 */
void
BM_CsrReconstruct(benchmark::State &state)
{
    static const CacheGeometry targets[] = {
        {1024 * 1024, 4, 128},
        {4 * 1024 * 1024, 8, 128},
        {1024 * 1024, 8, 128},
    };
    const CacheSetRecord csr = maxL2Record();
    CacheModel target(targets[state.range(0)], "tgt");
    for (auto _ : state) {
        csr.reconstruct(target);
        benchmark::DoNotOptimize(target.accessClock());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(csr.entryCount()));
}
BENCHMARK(BM_CsrReconstruct)->ArgName("l2")->Arg(0)->Arg(1)->Arg(2);

/**
 * The producer side of the same record: decoding its wire form into
 * a recycled record, as the replay decode ring does per point.
 */
void
BM_CsrDeserialize(benchmark::State &state)
{
    const Blob bytes = maxL2Record().serialize();
    CacheSetRecord rec;
    for (auto _ : state) {
        DerReader r(bytes);
        CacheSetRecord::deserializeInto(r, rec);
        benchmark::DoNotOptimize(rec.entryCount());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(rec.entryCount()));
}
BENCHMARK(BM_CsrDeserialize);

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
    sim->setHierarchy(&hier);
    sim->addPredictor(&bp);
    for (auto _ : state) {
        if (sim->finished()) {
            state.PauseTiming();
            sim = std::make_unique<FunctionalSimulator>(prog);
            sim->setHierarchy(&hier);
            sim->addPredictor(&bp);
            state.ResumeTiming();
        }
        sim->run(10000);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_FunctionalWarming);

/**
 * The detailed core alone: fetch a chunk of a long program and time
 * it on one 8-way core (nothing is executed; the core times what it
 * is handed).
 */
void
BM_DetailedCore(benchmark::State &state)
{
    const Program prog = generateProgram(tinyProfile(10'000'000, 3));
    const CoreConfig cfg = CoreConfig::eightWay();
    MemHierarchy hier(cfg.mem);
    BranchPredictor bp(cfg.bpred);
    CoreBindings b;
    b.prog = &prog;
    b.hier = &hier;
    b.bp = &bp;
    OoOCore core(cfg, b);
    InstChunk chunk;
    InstCount next = 0;
    for (auto _ : state) {
        if (next + InstChunk::capacity > prog.length) {
            state.PauseTiming();
            hier.reset();
            bp.reset();
            core.rebind(b);
            next = 0;
            state.ResumeTiming();
        }
        chunk.fetch(prog, next, InstChunk::capacity);
        core.time(chunk);
        next += InstChunk::capacity;
    }
    benchmark::DoNotOptimize(core.lastCommit());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                InstChunk::capacity));
}
BENCHMARK(BM_DetailedCore);

/** The dse-cold grid: eight, sixteen, eight-mem300, sixteen-l2-1m. */
std::vector<CoreConfig>
dseColdConfigs()
{
    CoreConfig mem300 = CoreConfig::eightWay();
    mem300.name = "eight-mem300";
    mem300.mem.memLatency = 300;
    CoreConfig l2small = CoreConfig::sixteenWay();
    l2small.name = "sixteen-l2-1m";
    l2small.mem.l2.sizeBytes = 1ull << 20;
    return {CoreConfig::eightWay(), CoreConfig::sixteenWay(), mem300,
            l2small};
}

/**
 * One gcc-2 live-point replayed under the four dse-cold
 * configurations through a pooled ReplayContext: arg lockstep=1 is
 * the engine's one lockstep pass (fetch once, time four times),
 * lockstep=0 four one-configuration replays of the same
 * load. approx=1 skips wrong-path simulation, so the wrong path's
 * share of a lockstep pass is 1 - time(approx=1) / time(approx=0),
 * read within one process. Items are replays.
 */
void
BM_ReplayFanout(benchmark::State &state)
{
    static const Program prog = generateProgram(findProfile("gcc-2"));
    static const LivePoint point = [] {
        const CoreConfig e8 = CoreConfig::eightWay();
        const CoreConfig s16 = CoreConfig::sixteenWay();
        LivePointBuilderConfig bc;
        bc.bpredConfigs = {e8.bpred, s16.bpred};
        const SampleDesign design = SampleDesign::systematic(
            measureProgramLength(prog), 4, 1000, s16.detailedWarming);
        return LivePointBuilder(bc).build(prog, design).get(1);
    }();
    const std::vector<CoreConfig> cfgs = dseColdConfigs();
    ReplayContext ctx(prog, cfgs);
    WindowResult res[4];
    const bool lockstep = state.range(0) != 0;
    const bool approx = state.range(1) != 0;
    for (auto _ : state) {
        ctx.loadPoint(point);
        if (lockstep) {
            ctx.replayMask(replayMaskAll(cfgs.size()), res, approx);
        } else {
            for (std::size_t c = 0; c < cfgs.size(); ++c)
                res[c] = ctx.replay(c, approx);
        }
        benchmark::DoNotOptimize(res[3].cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfgs.size()));
}
BENCHMARK(BM_ReplayFanout)
    ->ArgNames({"lockstep", "approx"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({0, 0});

/**
 * The MRRL analysis a sharded build runs before it warms: gcc-2 under
 * the fleet's 100-point design, for the builder's three shard-leading
 * windows at S=4 (all=0) or for every window (all=1), scanned on the
 * calling thread (pool=0) or split across a pool of 4 workers. Wall
 * time; items are the instructions before the last window.
 */
void
BM_MrrlAnalysis(benchmark::State &state)
{
    static const Program prog = generateProgram(findProfile("gcc-2"));
    const SampleDesign design = SampleDesign::systematic(
        measureProgramLength(prog), 100, 1000,
        CoreConfig::sixteenWay().detailedWarming);
    std::vector<InstCount> starts;
    if (state.range(0) != 0) {
        starts = design.windowStarts();
    } else {
        for (std::uint64_t s = 1; s < 4; ++s)
            starts.push_back(design.windowStart(design.count * s / 4));
    }
    std::unique_ptr<ThreadPool> pool;
    if (state.range(1) != 0)
        pool = std::make_unique<ThreadPool>(
            static_cast<unsigned>(state.range(1)));
    for (auto _ : state) {
        const MrrlAnalysis m =
            analyzeMrrl(prog, starts, design.windowLen(),
                        defaultMrrlCoverage, pool.get());
        benchmark::DoNotOptimize(m.warmingLengths.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(starts.back()));
}
BENCHMARK(BM_MrrlAnalysis)
    ->ArgNames({"all", "pool"})
    ->Args({0, 0})
    ->Args({0, 4})
    ->Args({1, 0})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
