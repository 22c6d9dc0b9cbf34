#include "uarch/core.hh"

#include <algorithm>

#include "util/log.hh"

namespace lp
{

namespace
{

Cycles &
earliest(std::vector<Cycles> &units)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < units.size(); ++i)
        if (units[i] < units[best])
            best = i;
    return units[best];
}

} // namespace

OoOCore::OoOCore(const CoreConfig &cfg, const CoreBindings &b)
    : cfg_(cfg), regReady_(32, 0), window_(cfg.ruuSize, 0),
      lsq_(cfg.lsqSize, 0),
      storeBuf_(std::max<std::size_t>(cfg.mem.storeBufferEntries, 1), 0),
      mshrs_(std::max<unsigned>(cfg.mem.mshrs, 1), 0),
      l1dPorts_(std::max<unsigned>(cfg.mem.l1dPorts, 1), 0),
      fuIntAlu_(std::max<unsigned>(cfg.fus.intAlu, 1), 0),
      fuIntMul_(std::max<unsigned>(cfg.fus.intMulDiv, 1), 0),
      fuFpAlu_(std::max<unsigned>(cfg.fus.fpAlu, 1), 0),
      fuFpMul_(std::max<unsigned>(cfg.fus.fpMulDiv, 1), 0)
{
    rebind(b);
}

void
OoOCore::rebind(const CoreBindings &b)
{
    prog_ = b.prog;
    hier_ = b.hier;
    bp_ = b.bp;
    approxWrongPath_ = false;
    fetchCycle_ = 0;
    fetchedThisCycle_ = 0;
    branchesThisCycle_ = 0;
    lastFetchLine_ = ~0ull;
    commitCycle_ = 0;
    committedThisCycle_ = 0;
    lastCommit_ = 0;
    std::fill(regReady_.begin(), regReady_.end(), 0);
    std::fill(window_.begin(), window_.end(), 0);
    std::fill(lsq_.begin(), lsq_.end(), 0);
    std::fill(storeBuf_.begin(), storeBuf_.end(), 0);
    std::fill(mshrs_.begin(), mshrs_.end(), 0);
    std::fill(l1dPorts_.begin(), l1dPorts_.end(), 0);
    std::fill(fuIntAlu_.begin(), fuIntAlu_.end(), 0);
    std::fill(fuIntMul_.begin(), fuIntMul_.end(), 0);
    std::fill(fuFpAlu_.begin(), fuFpAlu_.end(), 0);
    std::fill(fuFpMul_.begin(), fuFpMul_.end(), 0);
    windowHead_ = 0;
    lsqHead_ = 0;
    storeHead_ = 0;
    mshrHead_ = 0;
    unavailableLoads_ = 0;
}

void
OoOCore::simulateWrongPath(InstCount index, Cycles resolve, Cycles fetched,
                           InstChunk &chunk)
{
    // The front end fetches down the wrong path until the branch
    // resolves; model its cache pollution (and, under restricted
    // live-state, its references to unavailable data).
    const Cycles span = resolve > fetched ? resolve - fetched : 0;
    const unsigned n = static_cast<unsigned>(
        std::min<std::uint64_t>(2 + span / 2, maxWrongPathInsts));
    for (const WrongPathLoad &wp : chunk.wrongPathLoads(index, n)) {
        unavailableLoads_ += !wp.available;
        hier_->timedData(wp.addr, false);
    }
}

template <bool ApproxWP>
void
OoOCore::step(const StepConsts &k, const Instruction &ins,
              InstCount index, InstChunk &chunk)
{
    // --- Fetch ---
    if (fetchedThisCycle_ >= k.width) {
        ++fetchCycle_;
        fetchedThisCycle_ = 0;
        branchesThisCycle_ = 0;
    }
    const Addr fetchAddr = prog_->fetchAddr(ins.pc);
    const Addr fetchLine = fetchAddr & ~63ull;
    if (fetchLine != lastFetchLine_) {
        lastFetchLine_ = fetchLine;
        const Cycles lat = hier_->timedFetch(fetchAddr);
        if (lat > k.l1Latency)
            fetchCycle_ += lat - k.l1Latency;
    }
    if (ins.isBranch() &&
        ++branchesThisCycle_ > k.predictionsPerCycle) {
        ++fetchCycle_;
        fetchedThisCycle_ = 0;
        branchesThisCycle_ = 1;
    }
    ++fetchedThisCycle_;
    const Cycles fetched = fetchCycle_;

    // --- Dispatch: window and queue occupancy ---
    Cycles dispatch = std::max(fetched, window_[windowHead_]);
    if (ins.isMem())
        dispatch = std::max(dispatch, lsq_[lsqHead_]);
    if (ins.op == Opcode::Store)
        dispatch = std::max(dispatch, storeBuf_[storeHead_]);

    // --- Issue: operands and a functional unit ---
    Cycles ready = std::max(
        {dispatch, regReady_[ins.src1], regReady_[ins.src2]});
    Cycles complete = ready;
    switch (ins.op) {
      case Opcode::IntAlu:
      case Opcode::Bne:
      case Opcode::Jump: {
        Cycles &fu = earliest(fuIntAlu_);
        const Cycles issue = std::max(ready, fu);
        fu = issue + 1;
        complete = issue + k.intAlu;
        break;
      }
      case Opcode::IntMul: {
        Cycles &fu = earliest(fuIntMul_);
        const Cycles issue = std::max(ready, fu);
        fu = issue + 1;
        complete = issue + k.intMulDiv;
        break;
      }
      case Opcode::FpAlu: {
        Cycles &fu = earliest(fuFpAlu_);
        const Cycles issue = std::max(ready, fu);
        fu = issue + 1;
        complete = issue + k.fpAlu;
        break;
      }
      case Opcode::FpMul: {
        Cycles &fu = earliest(fuFpMul_);
        const Cycles issue = std::max(ready, fu);
        fu = issue + 1;
        complete = issue + k.fpMulDiv;
        break;
      }
      case Opcode::Load:
      case Opcode::Store: {
        Cycles &port = earliest(l1dPorts_);
        Cycles issue = std::max(ready, port);
        bool l1Miss = false;
        const Cycles lat = hier_->timedData(
            ins.addr, ins.op == Opcode::Store, &l1Miss);
        if (l1Miss) {
            // A miss occupies an MSHR.
            Cycles &mshr = mshrs_[mshrHead_];
            issue = std::max(issue, mshr);
            mshr = issue + lat;
            if (++mshrHead_ == mshrs_.size())
                mshrHead_ = 0;
        }
        port = issue + 1;
        if (ins.op == Opcode::Load) {
            complete = issue + lat;
        } else {
            // Stores retire into the store buffer and complete in the
            // background.
            complete = issue + 1;
            storeBuf_[storeHead_] = issue + lat;
            if (++storeHead_ == storeBuf_.size())
                storeHead_ = 0;
        }
        break;
      }
    }
    if (ins.dst)
        regReady_[ins.dst] = complete;

    // --- Branch resolution ---
    if (ins.op == Opcode::Bne) {
        const bool predicted = bp_->predict(ins.pc);
        bp_->update(ins.pc, ins.taken);
        if (predicted != ins.taken) {
            if (!ApproxWP)
                simulateWrongPath(index, complete, fetched, chunk);
            const Cycles redirect =
                complete + k.mispredictPenalty;
            if (redirect > fetchCycle_) {
                fetchCycle_ = redirect;
                fetchedThisCycle_ = 0;
                branchesThisCycle_ = 0;
            }
        }
    }

    // --- Commit (program order, width per cycle) ---
    Cycles commit = std::max(complete, lastCommit_);
    if (commit > commitCycle_) {
        commitCycle_ = commit;
        committedThisCycle_ = 0;
    }
    if (++committedThisCycle_ > k.width) {
        ++commitCycle_;
        committedThisCycle_ = 1;
        commit = commitCycle_;
    } else {
        commit = commitCycle_;
    }
    lastCommit_ = commit;
    window_[windowHead_] = commit;
    if (++windowHead_ == window_.size())
        windowHead_ = 0;
    if (ins.isMem()) {
        lsq_[lsqHead_] = commit;
        if (++lsqHead_ == lsq_.size())
            lsqHead_ = 0;
    }
}

template <bool ApproxWP>
void
OoOCore::runLoop(InstChunk &chunk)
{
    StepConsts k;
    k.width = cfg_.width;
    k.predictionsPerCycle = cfg_.bpred.predictionsPerCycle;
    k.l1Latency = cfg_.mem.l1Latency;
    k.intAlu = cfg_.lat.intAlu;
    k.intMulDiv = cfg_.lat.intMulDiv;
    k.fpAlu = cfg_.lat.fpAlu;
    k.fpMulDiv = cfg_.lat.fpMulDiv;
    k.mispredictPenalty = cfg_.bpred.mispredictPenalty;
    const Instruction *ins = chunk.data();
    const InstCount first = chunk.first();
    for (std::size_t i = 0, n = chunk.size(); i < n; ++i)
        step<ApproxWP>(k, ins[i], first + i, chunk);
}

void
OoOCore::time(InstChunk &chunk)
{
    if (approxWrongPath_)
        runLoop<true>(chunk);
    else
        runLoop<false>(chunk);
}

void
runWindow(const Program &prog, InstChunk &chunk, InstCount start,
          InstCount warmLen, InstCount measureLen,
          const MemoryImage *availability, OoOCore *const *cores,
          std::size_t n, WindowResult *out)
{
    const InstCount length = prog.length;
    start = std::min(start, length);
    const InstCount warmEnd = start + std::min(warmLen, length - start);
    const InstCount end = warmEnd + std::min(measureLen, length - warmEnd);
    auto walk = [&](InstCount from, InstCount to) {
        while (from < to) {
            const std::size_t len = static_cast<std::size_t>(
                std::min<InstCount>(InstChunk::capacity, to - from));
            chunk.fetch(prog, from, len, availability);
            for (std::size_t c = 0; c < n; ++c)
                cores[c]->time(chunk);
            from += len;
        }
    };

    walk(start, warmEnd);
    // Park each core's marks in its result until the window ends.
    for (std::size_t c = 0; c < n; ++c) {
        out[c].cycles = cores[c]->lastCommit();
        out[c].unavailableLoads = cores[c]->unavailableLoads();
    }
    walk(warmEnd, end);
    const InstCount insts = end - warmEnd;
    for (std::size_t c = 0; c < n; ++c) {
        WindowResult &r = out[c];
        r.insts = insts;
        r.cycles = cores[c]->lastCommit() - r.cycles;
        r.cpi = insts ? static_cast<double>(r.cycles) /
                            static_cast<double>(insts)
                      : 0.0;
        r.unavailableLoads =
            cores[c]->unavailableLoads() - r.unavailableLoads;
    }
}

} // namespace lp
