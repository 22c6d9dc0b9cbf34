/**
 * @file
 * Fast functional emulation: architectural execution of a Program
 * with optional observers — a memory hierarchy and branch predictors
 * to warm, a memory-timestamp record to populate, and a MemoryImage
 * capturing the live-state of a window as it executes.
 */

#ifndef LP_FUNC_FUNCTIONAL_HH
#define LP_FUNC_FUNCTIONAL_HH

#include <vector>

#include "bpred/bpred.hh"
#include "cache/warmstate.hh"
#include "mem/hierarchy.hh"
#include "mem/memport.hh"
#include "workload/generator.hh"

namespace lp
{

class FunctionalSimulator
{
  public:
    explicit FunctionalSimulator(const Program &prog);

    /** Execute up to @p n instructions (stops at program end). */
    void run(InstCount n);

    /**
     * Jump the simulator to a previously captured architectural state
     * (registers + memory) — the parallel builder's shard workers
     * start mid-program from pre-pass snapshots. Attached observers
     * are unaffected; the fetch-line filter is reset.
     */
    void restore(const ArchRegs &regs, SparseMemory mem);

    bool finished() const { return regs_.instIndex >= prog_.length; }

    const ArchRegs &regs() const { return regs_; }
    const Program &program() const { return prog_; }
    SparseMemory &memory() { return mem_; }
    const SparseMemory &memory() const { return mem_; }

    /** Warm this hierarchy with every reference (nullptr detaches). */
    void setHierarchy(MemHierarchy *hier) { hier_ = hier; }

    /** Warm an additional branch predictor. */
    void addPredictor(BranchPredictor *bp);

    /** Detach all warmed predictors. */
    void clearPredictors() { preds_.clear(); }

    /** Populate a memory-timestamp record (nullptr detaches). */
    void setMtr(MemoryTimestampRecord *mtr) { mtr_ = mtr; }

    /**
     * Capture the live-state image of the instructions executed while
     * attached: each touched block is recorded with its contents as
     * of first touch (nullptr detaches).
     */
    void setCaptureImage(MemoryImage *img) { capture_ = img; }

  private:
    const Program &prog_;
    ArchRegs regs_;
    SparseMemory mem_;
    MemHierarchy *hier_ = nullptr;
    std::vector<BranchPredictor *> preds_;
    MemoryTimestampRecord *mtr_ = nullptr;
    MemoryImage *capture_ = nullptr;
    Addr lastFetchLine_ = ~0ull;
};

} // namespace lp

#endif // LP_FUNC_FUNCTIONAL_HH
