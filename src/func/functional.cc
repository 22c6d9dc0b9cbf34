#include "func/functional.hh"

namespace lp
{

namespace
{

/** Architecturally execute one instruction: update registers and memory. */
void
executeArch(const Instruction &ins, ArchRegs &regs, SparseMemory &mem)
{
    auto &r = regs.r;
    switch (ins.op) {
      case Opcode::IntAlu:
      case Opcode::FpAlu:
        r[ins.dst] = r[ins.src1] + r[ins.src2] + 1;
        break;
      case Opcode::IntMul:
      case Opcode::FpMul:
        r[ins.dst] = r[ins.src1] * (r[ins.src2] | 1);
        break;
      case Opcode::Load:
        r[ins.dst] = mem.read64(ins.addr);
        break;
      case Opcode::Store:
        mem.write64(ins.addr, r[ins.src1]);
        break;
      case Opcode::Bne:
      case Opcode::Jump:
        break;
    }
    r[0] = 0;
    ++regs.instIndex;
}

} // namespace

FunctionalSimulator::FunctionalSimulator(const Program &prog)
    : prog_(prog)
{
    if (!prog.dataInit.empty())
        mem_.writeBytes(prog.dataBase, prog.dataInit.data(),
                        prog.dataInit.size());
}

void
FunctionalSimulator::addPredictor(BranchPredictor *bp)
{
    preds_.push_back(bp);
}

void
FunctionalSimulator::restore(const ArchRegs &regs, SparseMemory mem)
{
    regs_ = regs;
    mem_ = std::move(mem);
    lastFetchLine_ = ~0ull;
}

void
FunctionalSimulator::run(InstCount n)
{
    const InstCount end =
        std::min(prog_.length, regs_.instIndex + n);
    while (regs_.instIndex < end) {
        const Instruction ins = prog_.fetch(regs_.instIndex);

        if (hier_) {
            const Addr fa = prog_.fetchAddr(ins.pc);
            const Addr line = fa & ~63ull;
            if (line != lastFetchLine_) {
                lastFetchLine_ = line;
                hier_->warmFetch(fa);
            }
        }
        if (ins.isMem()) {
            if (capture_)
                capture_->captureBeforeAccess(mem_, ins.addr);
            if (hier_)
                hier_->warmData(ins.addr, ins.op == Opcode::Store);
            if (mtr_)
                mtr_->record(ins.addr, ins.op == Opcode::Store,
                             regs_.instIndex);
        }
        if (ins.op == Opcode::Bne)
            for (BranchPredictor *bp : preds_)
                bp->warmBranch(ins.pc, ins, ins.taken, ins.target);

        executeArch(ins, regs_, mem_);
    }
}

} // namespace lp
