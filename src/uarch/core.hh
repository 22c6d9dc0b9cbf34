/**
 * @file
 * Detailed out-of-order core: a one-pass cycle-accounting model of a
 * superscalar machine (fetch/window/FU/memory/commit constraints and
 * wrong-path cache pollution after mispredictions). The core times
 * the instructions it is handed, a chunk at a time; it does not
 * execute them. Timing depends only on each instruction's op,
 * registers, address and direction, all pure functions of its index,
 * so no register or memory value is needed to time a window. Replay
 * fetches a window once per point and every configuration's core
 * times it (ReplayContext); SMARTS and adaptive warming leave
 * execution to their functional simulator, which runs through the
 * window right after.
 *
 * Only how far a core runs down a wrong path depends on its timing;
 * which loads the path holds, and whether the point's availability
 * image holds their addresses, does not. The chunk memoizes those
 * loads (InstChunk::wrongPathLoads), so a core only reads them,
 * counts the unavailable ones and sends each through its own
 * hierarchy. The availability image belongs to the point, so
 * runWindow takes it once for all its cores.
 */

#ifndef LP_UARCH_CORE_HH
#define LP_UARCH_CORE_HH

#include <vector>

#include "mem/hierarchy.hh"
#include "mem/memport.hh"
#include "uarch/config.hh"
#include "workload/generator.hh"

namespace lp
{

/** Timing outcome of a run segment. */
struct WindowResult
{
    double cpi = 0.0;
    InstCount insts = 0;
    Cycles cycles = 0;
    std::uint64_t unavailableLoads = 0;
};

/** Everything a core needs bound before it can time instructions. */
struct CoreBindings
{
    const Program *prog = nullptr; //!< fetch addresses
    MemHierarchy *hier = nullptr;
    BranchPredictor *bp = nullptr;
};

class OoOCore
{
  public:
    OoOCore(const CoreConfig &cfg, const CoreBindings &b);

    /**
     * Re-arm the core for a fresh run over new bindings (same
     * configuration): equivalent to reconstructing it, but reuses the
     * timing arrays — the zero-realloc path pooled replay contexts
     * take between live-points.
     */
    void rebind(const CoreBindings &b);

    /**
     * Time @p chunk's instructions after everything timed since the
     * last rebind. Successive chunks must continue one instruction
     * stream of the bound program. A mispredict reads (and, the first
     * time, extends) the chunk's wrong-path memo.
     */
    void time(InstChunk &chunk);

    /** Skip simulating wrong-path memory references (Section 5). */
    void setApproxWrongPath(bool v) { approxWrongPath_ = v; }

    /** Commit cycle of the last instruction timed (0 after rebind). */
    Cycles lastCommit() const { return lastCommit_; }

    /**
     * Wrong-path loads so far whose address the availability image
     * bound to the chunks did not hold.
     */
    std::uint64_t unavailableLoads() const { return unavailableLoads_; }

  private:
    /**
     * Config-invariant values read every instruction, hoisted out of
     * CoreConfig once per chunk so the specialized step loop works
     * from locals the optimizer can keep live across iterations.
     */
    struct StepConsts
    {
        unsigned width = 0;
        unsigned predictionsPerCycle = 0;
        Cycles l1Latency = 0;
        Cycles intAlu = 0;
        Cycles intMulDiv = 0;
        Cycles fpAlu = 0;
        Cycles fpMulDiv = 0;
        Cycles mispredictPenalty = 0;
    };

    /**
     * One instruction through the timing model, specialized at compile
     * time on whether wrong-path simulation is approximated away, a
     * flag that never changes within a run. time() dispatches once to
     * the matching instantiation, so the per-instruction loop carries
     * no runtime check for it.
     */
    template <bool ApproxWP>
    void step(const StepConsts &k, const Instruction &ins,
              InstCount index, InstChunk &chunk);
    template <bool ApproxWP>
    void runLoop(InstChunk &chunk);
    void simulateWrongPath(InstCount index, Cycles resolve,
                           Cycles fetched, InstChunk &chunk);

    const CoreConfig &cfg_;
    const Program *prog_;
    MemHierarchy *hier_;
    BranchPredictor *bp_;
    bool approxWrongPath_ = false;

    // Timing state.
    Cycles fetchCycle_ = 0;
    unsigned fetchedThisCycle_ = 0;
    unsigned branchesThisCycle_ = 0;
    Addr lastFetchLine_ = ~0ull;
    Cycles commitCycle_ = 0;
    unsigned committedThisCycle_ = 0;
    Cycles lastCommit_ = 0;
    std::vector<Cycles> regReady_;
    std::vector<Cycles> window_;    //!< commit times, ring of ruuSize
    std::vector<Cycles> lsq_;       //!< commit times of mem ops
    std::vector<Cycles> storeBuf_;  //!< store completion times
    std::vector<Cycles> mshrs_;     //!< outstanding-miss completions
    std::vector<Cycles> l1dPorts_;  //!< port next-free times
    std::vector<Cycles> fuIntAlu_;
    std::vector<Cycles> fuIntMul_;
    std::vector<Cycles> fuFpAlu_;
    std::vector<Cycles> fuFpMul_;
    std::size_t windowHead_ = 0;
    std::size_t lsqHead_ = 0;
    std::size_t storeHead_ = 0;
    std::size_t mshrHead_ = 0;
    std::uint64_t unavailableLoads_ = 0;
};

/**
 * Time one detailed window on @p n cores in lockstep: @p warmLen
 * instructions of detailed warming (timed, then discarded) followed
 * by @p measureLen measured ones, from index @p start and clipped at
 * the program's end. The window is walked in InstChunk-sized chunks
 * that split at the end of the warming; each chunk is fetched into
 * @p chunk once, then every core times it. @p availability (live-point
 * replay under restricted live-state; null otherwise) is the image
 * wrong-path loads are checked against: one outside it is counted
 * unavailable. out[i] receives cores[i]'s timing of the measured
 * instructions. The cores must be freshly rebound.
 */
void runWindow(const Program &prog, InstChunk &chunk, InstCount start,
               InstCount warmLen, InstCount measureLen,
               const MemoryImage *availability, OoOCore *const *cores,
               std::size_t n, WindowResult *out);

} // namespace lp

#endif // LP_UARCH_CORE_HH
