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
 */

#ifndef LP_WORKLOAD_GENERATOR_HH
#define LP_WORKLOAD_GENERATOR_HH

#include <array>
#include <vector>

#include "codec/der.hh"
#include "mem/memport.hh"
#include "util/types.hh"
#include "workload/profile.hh"

namespace lp
{

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
     * usually touch recently-referenced correct-path data.
     */
    Instruction wrongPath(InstCount index, unsigned k) const;
};

/** Build the deterministic program described by @p profile. */
Program generateProgram(const WorkloadProfile &profile);

/** Dynamic length of the program (whole chunks of the target count). */
InstCount measureProgramLength(const Program &prog);

/**
 * Architecturally execute one instruction: update registers and
 * memory. Shared by the functional simulator and the detailed core so
 * both produce bit-identical state trajectories.
 */
void executeArch(const Instruction &ins, ArchRegs &regs, MemPort &mem);

} // namespace lp

#endif // LP_WORKLOAD_GENERATOR_HH
