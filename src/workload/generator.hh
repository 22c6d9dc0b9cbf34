/**
 * @file
 * Synthetic benchmark programs. A Program's dynamic instruction stream
 * is a *pure function* of (profile, instruction index): any position
 * can be re-fetched without replaying history. That property is what
 * makes live-points exact — a checkpoint is just (index, registers,
 * touched memory), and re-execution from it reproduces the original
 * run bit-for-bit.
 *
 * Programs cycle through `phases` distinct phases in fixed-length
 * chunks. Each phase has its own loop body (static instructions with
 * stable roles, so branch predictors and caches see realistic reuse),
 * working-set region, instruction mix, and locality behaviour.
 *
 * Most of an instruction depends only on its static slot (phase,
 * position in the phase's loop body). generateProgram derives those
 * fields once per slot from that pure function and keeps them in each
 * phase's slot table, next to a table of each chunk's phase; fetch()
 * adds only what depends on the index. The tables cache the function,
 * they do not redefine it: tests/test_workload.cc keeps the
 * per-instruction derivation as the oracle and pins the stream.
 *
 * The wrong path after a mispredicted branch is a pure function of
 * (index, k) as well, and the detailed core reads only its loads'
 * addresses. An InstChunk therefore memoizes, per mispredicted index
 * it holds, the loads among the first n wrong-path instructions —
 * derived once, without pc or registers, and shared by every core
 * that times the chunk; only n depends on a core's timing.
 */

#ifndef LP_WORKLOAD_GENERATOR_HH
#define LP_WORKLOAD_GENERATOR_HH

#include <array>
#include <vector>

#include "codec/der.hh"
#include "util/types.hh"
#include "workload/profile.hh"

namespace lp
{

class MemoryImage;

enum class Opcode : std::uint8_t
{
    IntAlu,
    IntMul,
    FpAlu,
    FpMul,
    Load,
    Store,
    Bne, //!< conditional branch
    Jump //!< unconditional
};

struct Instruction
{
    Opcode op = Opcode::IntAlu;
    std::uint8_t dst = 0;
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
    PcIndex pc = 0;
    PcIndex target = 0; //!< branch target
    Addr addr = 0;      //!< effective address of a load/store
    bool taken = false; //!< resolved direction of a branch

    bool isMem() const
    {
        return op == Opcode::Load || op == Opcode::Store;
    }

    bool isBranch() const
    {
        return op == Opcode::Bne || op == Opcode::Jump;
    }
};

/** Architectural state: position + 32 integer/fp registers. */
struct ArchRegs
{
    InstCount instIndex = 0;
    std::array<std::uint64_t, 32> r{};

    Blob serialize() const;
    void serialize(DerWriter &w) const;
    static ArchRegs deserialize(DerReader &r);
};

/** What fetch() adds to a slot's static fields per dynamic instance. */
enum class SlotKind : std::uint8_t
{
    Plain,        //!< ALU or FP work: nothing depends on the index
    RandomMem,    //!< load/store in a drifting random neighborhood
    HotMem,       //!< load/store in the phase's hot region
    StridedMem,   //!< load/store walking the region at a slot stride
    LoopBranch,   //!< loop-back branch: taken unless it ends the chunk
    NoisyBranch,  //!< data-dependent direction: a coin per instance
    StableBranch  //!< stable direction with rare per-instance flips
};

/** The static fields of one loop-body slot. */
struct SlotSpec
{
    Instruction ins; //!< op, registers, pc, target; stable direction
    SlotKind kind = SlotKind::Plain;
    std::uint64_t stride = 0;  //!< StridedMem step in bytes
    std::uint64_t drawKey = 0; //!< slot half of the per-instance hash
};

/** Derived, deterministic description of one program phase. */
struct PhaseSpec
{
    Addr regionBase = 0;
    std::uint64_t regionBytes = 0;
    std::uint64_t hotBytes = 0;
    PcIndex pcBase = 0;
    unsigned bodySize = 0;
    double loadFrac = 0;
    double storeFrac = 0;
    double branchFrac = 0;
    double fpFrac = 0;
    double mulFrac = 0;
    double takenBias = 0;
    double noiseFrac = 0;
    double randomFrac = 0;
    double hotFrac = 0;
    std::vector<SlotSpec> slots; //!< the loop body, bodySize entries
};

/** Most wrong-path instructions a core fetches after one mispredict. */
inline constexpr unsigned maxWrongPathInsts = 24;

/** One load on the wrong path after a mispredicted branch. */
struct WrongPathLoad
{
    Addr addr = 0;
    unsigned k = 0;         //!< its position on the wrong path
    bool available = true;  //!< the point's availability image holds it
};

/** Consecutive wrong-path loads, in k order. */
struct WrongPathLoads
{
    const WrongPathLoad *first = nullptr;
    std::size_t count = 0;

    const WrongPathLoad *begin() const { return first; }
    const WrongPathLoad *end() const { return first + count; }
};

class InstChunk;

struct Program
{
    std::string name;
    WorkloadProfile profile;
    std::vector<PhaseSpec> phases;
    InstCount length = 0;     //!< total dynamic instructions
    InstCount chunkInsts = 0; //!< instructions per phase chunk
    Addr codeBase = 0;
    Addr dataBase = 0;
    std::vector<std::uint8_t> dataInit; //!< initial bytes at dataBase
    std::vector<std::uint32_t> chunkPhases; //!< phase of each chunk

    /** The phase active at dynamic instruction @p index. */
    const PhaseSpec &phaseAt(InstCount index) const;

    /** Decode the dynamic instruction at @p index (pure). */
    Instruction fetch(InstCount index) const;

    /** Instruction-memory address of a static slot. */
    Addr fetchAddr(PcIndex pc) const { return codeBase + pc * 4; }

    /**
     * Synthesize the @p k-th wrong-path instruction after a
     * mispredicted branch at @p index: mostly ALU work plus loads that
     * usually touch recently-referenced correct-path data. The
     * backward scan for that data reads instructions inside
     * @p chunk (when given, a chunk fetched from this program) from
     * the chunk and derives the rest; the result is the same.
     */
    Instruction wrongPath(InstCount index, unsigned k,
                          const InstChunk *chunk = nullptr) const;

    /**
     * The loads among wrong-path instructions @p kBegin <= k < @p kEnd
     * after @p index, in k order: each k whose wrongPath(index, k,
     * chunk) is a load, with that load's address, derived without pc
     * or registers. Writes them to @p out (room for kEnd - kBegin
     * entries, `available` left true) and returns how many there are.
     */
    std::size_t wrongPathLoads(InstCount index, unsigned kBegin,
                               unsigned kEnd, const InstChunk *chunk,
                               WrongPathLoad *out) const;
};

/**
 * Consecutive dynamic instructions [first(), first() + size()) of one
 * program, fetched into a buffer of fixed capacity. The detailed core
 * times instructions a chunk at a time, so a window is fetched once
 * however many cores time it. The chunk also memoizes the wrong path
 * after each mispredicted branch it holds (wrongPathLoads()), so the
 * cores share that derivation too. Every buffer is bounded by
 * capacity, never sized from a record's window length: a live-point
 * cannot size them. The memo's buffers grow to their high-water mark
 * and keep it, so a warm chunk fetches and times without allocating.
 */
class InstChunk
{
  public:
    static constexpr std::size_t capacity = 2048;

    InstChunk() : ins_(capacity), memoOf_(capacity, 0) {}

    /**
     * Fetch the @p n <= capacity instructions from index @p first and
     * forget the previous chunk's wrong paths. @p availability (the
     * replayed point's restricted memory image, or null) is what the
     * wrong-path loads' `available` flags are read against; it and
     * @p prog must stay alive while the chunk's wrong paths are read.
     */
    void fetch(const Program &prog, InstCount first, std::size_t n,
               const MemoryImage *availability = nullptr);

    InstCount first() const { return first_; }
    std::size_t size() const { return size_; }
    const Instruction *data() const { return ins_.data(); }

    /** The instruction at dynamic @p index, or null outside the chunk. */
    const Instruction *find(InstCount index) const
    {
        return index - first_ < size_ ? &ins_[index - first_] : nullptr;
    }

    /**
     * The loads among the first @p n <= maxWrongPathInsts wrong-path
     * instructions after the branch at @p index, which the chunk
     * holds: Program::wrongPathLoads(index, 0, n, this), with each
     * load's `available` read from the availability image (true
     * without one). The first request for an index derives its loads,
     * a larger @p n extends them, and a smaller one reads a prefix, so
     * the cores timing the chunk derive each wrong path once, up to
     * the largest n any of them asks for. Valid until the next
     * wrongPathLoads() or fetch().
     */
    WrongPathLoads wrongPathLoads(InstCount index, unsigned n);

  private:
    /** The wrong path derived so far after one chunk position. */
    struct WrongPathMemo
    {
        std::size_t pos = 0;  //!< chunk position of the branch
        unsigned derived = 0; //!< wrong-path instructions derived (k < this)
        unsigned loads = 0;   //!< loads among them
    };

    std::vector<Instruction> ins_;
    InstCount first_ = 0;
    std::size_t size_ = 0;
    const Program *prog_ = nullptr;
    const MemoryImage *avail_ = nullptr;
    std::vector<std::uint32_t> memoOf_; //!< per position: memo + 1, or 0
    std::vector<WrongPathMemo> memos_;
    /** maxWrongPathInsts entries per memo, in memos_ order. */
    std::vector<WrongPathLoad> loads_;
};

/** Build the deterministic program described by @p profile. */
Program generateProgram(const WorkloadProfile &profile);

/** Dynamic length of the program (whole chunks of the target count). */
InstCount measureProgramLength(const Program &prog);

} // namespace lp

#endif // LP_WORKLOAD_GENERATOR_HH
