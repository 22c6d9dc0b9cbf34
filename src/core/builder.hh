/**
 * @file
 * Live-point library creation: the one-time full-warming pass (Figure
 * 6, step 2). The builder runs a functional simulation of the whole
 * benchmark, keeping a hierarchy at the library's *maximum* geometry
 * and every covered branch predictor warm; at each window start it
 * snapshots registers and warm state, then captures the window's
 * touched memory blocks as the restricted live-state image.
 *
 * Creation parallelises the same way replay does. The sample is split
 * into S contiguous shards; a cheap arch-only functional pre-pass
 * captures registers + memory at each shard boundary, and each pool
 * worker warms caches/TLBs/predictors over an MRRL-derived prefix
 * (the analysis scans the stream on the same pool first) before
 * emitting its shard's points. The architectural content of
 * every point (registers, live-state image) is *exact* regardless of
 * sharding — execution is deterministic from the snapshots — and the
 * MRRL result (Figs 4-5) bounds the warm-state bias at each shard's
 * leading windows. Each point is serialized on its simulating thread
 * and compressed on encoder threads — plain LZSS, or a delta against
 * its predecessor's raw bytes when that is smaller — so even the S=1
 * build overlaps simulation with encoding while staying bit-identical
 * to the sequential reference.
 */

#ifndef LP_CORE_BUILDER_HH
#define LP_CORE_BUILDER_HH

#include "core/library.hh"
#include "core/library_set.hh"
#include "uarch/config.hh"

namespace lp
{

/**
 * The maximum microarchitecture a library bakes in: caches/TLBs no
 * larger than these geometries and predictors in this set can be
 * reconstructed exactly. Defaults cover both Table 1 configurations.
 */
struct LivePointBuilderConfig
{
    CacheGeometry maxL1i{64 * 1024, 2, 64};
    CacheGeometry maxL1d{64 * 1024, 2, 64};
    CacheGeometry maxL2{4ull << 20, 8, 128};
    CacheGeometry maxItlb{128 * 4096, 4, 4096};
    CacheGeometry maxDtlb{256 * 4096, 4, 4096};
    std::vector<BpredConfig> bpredConfigs{BpredConfig{}};

    /**
     * Warming shards (S). 1 = the whole sample on one simulating
     * thread (exact full warming); S>1 splits the sample into S
     * contiguous shards warmed concurrently.
     */
    unsigned buildThreads = 1;

    /**
     * Offload point compression from the simulating threads to
     * encoder threads. Off = the sequential reference path (only
     * meaningful with buildThreads == 1).
     */
    bool pipelineEncode = true;

    /**
     * Delta-encode each point against its predecessor's raw payload
     * (successive points share most warm state). Each record keeps
     * whichever encoding is smaller, so delta never costs bytes; a
     * keyframe every maxDeltaChain points (and at every shard start)
     * bounds the chain a replay must rebuild. Saves as LPLIB4.
     */
    bool deltaEncode = false;

    /** Keyframe cadence: at most this many records per delta chain. */
    unsigned maxDeltaChain = 8;
};

/**
 * Restricted live-state as a build option: a builder configuration
 * whose warm state covers exactly the geometry/predictor range of
 * @p configs instead of the library-wide maximum — a campaign that
 * only replays those configurations stores (and decodes) far fewer
 * warm-state bytes, at the price of not covering anything larger.
 * Geometries are combined per level (max size/assoc; line sizes must
 * agree — the set-record covering relation requires it) and the
 * distinct branch predictors of @p configs become the covered set.
 * Encoding/threading knobs are taken from @p base.
 */
LivePointBuilderConfig
restrictedBuilderConfig(const std::vector<CoreConfig> &configs,
                        const LivePointBuilderConfig &base = {});

struct BuilderStats
{
    double wallSeconds = 0.0;
    std::uint64_t points = 0;
    /** Functionally *warmed* instructions, summed over shards. */
    InstCount instsSimulated = 0;
    /** Arch-only pre-pass instructions (0 for a 1-shard build). */
    InstCount prePassInsts = 0;
    unsigned shards = 1;
    /**
     * Warming instructions the shards *wanted* but could not get:
     * a shard's prefix may reach back before the previous shard's
     * snapshot, and the one-forward-pass pre-pass cannot rewind. A
     * nonzero value means some shard-leading windows were warmed
     * short of the MRRL bound (also warned at build time) — use
     * fewer shards.
     */
    InstCount prefixShortfallInsts = 0;
};

class LivePointBuilder
{
  public:
    explicit LivePointBuilder(const LivePointBuilderConfig &cfg);

    /** Create the library for @p design over @p prog. */
    LivePointLibrary build(const Program &prog,
                           const SampleDesign &design);

    /**
     * Build @p prog's library and stream it straight into @p set as
     * the shard for workload @p name, releasing the in-memory
     * library before returning — a fleet build over many workloads
     * keeps at most one shard resident at a time. Returns the
     * build's statistics.
     */
    BuilderStats buildInto(LibrarySetWriter &set,
                           const std::string &name, const Program &prog,
                           const SampleDesign &design);

    /** Statistics of the most recent build() call. */
    const BuilderStats &stats() const { return stats_; }

    const LivePointBuilderConfig &config() const { return cfg_; }

  private:
    LivePointLibrary buildSequential(const Program &prog,
                                     const SampleDesign &design);
    LivePointLibrary buildParallel(const Program &prog,
                                   const SampleDesign &design);

    LivePointBuilderConfig cfg_;
    BuilderStats stats_;
};

} // namespace lp

#endif // LP_CORE_BUILDER_HH
