#include "workload/generator.hh"

#include <algorithm>
#include <cmath>

#include "mem/memport.hh"
#include "util/rng.hh"

namespace lp
{

namespace
{

constexpr Addr kCodeBase = 0x40000000ull;
constexpr Addr kDataBase = 0x10000000ull;
constexpr std::uint64_t kHotBytes = 64 * 1024;

/** Uniform double in [0,1) from the top 53 bits of a hash. */
double
toU01(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t
hashVal(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
        std::uint64_t salt)
{
    return hashMix(hashCombine(hashCombine(seed, a), hashCombine(b, salt)));
}

/** Uniform double in [0,1) from a hash of (seed, a, b, salt). */
double
hashU01(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
        std::uint64_t salt)
{
    return toU01(hashVal(seed, a, b, salt));
}

/**
 * hashVal(seed, index, slot, salt) from its two halves: the index half
 * hashCombine(seed, index) and the slot's precomputed drawKey
 * hashCombine(slot, salt).
 */
std::uint64_t
instanceDraw(std::uint64_t seed, InstCount index, const SlotSpec &s)
{
    return hashMix(hashCombine(hashCombine(seed, index), s.drawKey));
}

/** Static role of a slot in a phase's loop body. */
Opcode
slotRole(const PhaseSpec &ph, std::uint64_t seed, unsigned phase,
         unsigned slot)
{
    if (slot + 1 == ph.bodySize)
        return Opcode::Bne; // loop-back branch
    const double u = hashU01(seed, phase, slot, 0x201e);
    double t = ph.loadFrac;
    if (u < t)
        return Opcode::Load;
    t += ph.storeFrac;
    if (u < t)
        return Opcode::Store;
    t += ph.branchFrac;
    if (u < t)
        return Opcode::Bne;
    t += ph.fpFrac;
    if (u < t)
        return Opcode::FpAlu;
    t += ph.mulFrac;
    if (u < t)
        return Opcode::IntMul;
    return Opcode::IntAlu;
}

/** The static fields of slot @p slot of phase @p phase's loop body. */
SlotSpec
deriveSlot(const PhaseSpec &ph, std::uint64_t seed, unsigned phase,
           unsigned slot)
{
    SlotSpec s;
    Instruction &ins = s.ins;
    ins.op = slotRole(ph, seed, phase, slot);
    ins.pc = ph.pcBase + slot;

    const std::uint64_t h = hashVal(seed, phase, slot, 0x0b5);
    switch (ins.op) {
      case Opcode::Load:
      case Opcode::IntAlu:
      case Opcode::IntMul:
        ins.dst = static_cast<std::uint8_t>(1 + (h % 15));
        ins.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
        break;
      case Opcode::Store:
        // Stores define no register (dst 0 = hardwired zero).
        ins.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
        break;
      case Opcode::FpAlu:
      case Opcode::FpMul:
        ins.dst = static_cast<std::uint8_t>(16 + (h % 15));
        ins.src1 = static_cast<std::uint8_t>(16 + ((h >> 8) % 15));
        ins.src2 = static_cast<std::uint8_t>(16 + ((h >> 16) % 15));
        break;
      case Opcode::Bne:
      case Opcode::Jump:
        ins.src1 = static_cast<std::uint8_t>(1 + (h % 15));
        ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        break;
    }

    if (ins.isMem()) {
        // Locality class is a property of the static slot; the
        // concrete address varies per dynamic instance.
        const double lu = hashU01(seed, phase, slot, 0x10c);
        if (lu < ph.randomFrac) {
            s.kind = SlotKind::RandomMem;
            s.drawKey = hashCombine(slot, 0xadd);
        } else if (lu < ph.randomFrac + ph.hotFrac) {
            s.kind = SlotKind::HotMem;
            s.drawKey = hashCombine(slot, 0x607);
        } else {
            s.kind = SlotKind::StridedMem;
            s.stride = 8ull << (hashVal(seed, phase, slot, 0x57) % 4);
        }
    } else if (ins.op == Opcode::Bne) {
        if (slot + 1 == ph.bodySize) {
            s.kind = SlotKind::LoopBranch;
            ins.target = ph.pcBase;
        } else {
            ins.target = ins.pc + 1 + (h % 16);
            if (hashU01(seed, phase, slot, 0x4015e) < ph.noiseFrac) {
                s.kind = SlotKind::NoisyBranch;
                s.drawKey = hashCombine(slot, 0xd1ce);
            } else {
                s.kind = SlotKind::StableBranch;
                ins.taken = hashU01(seed, phase, slot, 0xd12) < ph.takenBias;
                s.drawKey = hashCombine(slot, 0xf11b);
            }
        }
    }
    return s;
}

} // namespace

Blob
ArchRegs::serialize() const
{
    DerWriter w;
    serialize(w);
    return w.finish();
}

void
ArchRegs::serialize(DerWriter &w) const
{
    w.beginSequence();
    w.putUint(instIndex);
    for (const std::uint64_t v : r)
        w.putUint(v);
    w.endSequence();
}

ArchRegs
ArchRegs::deserialize(DerReader &rd)
{
    DerReader seq = rd.getSequence();
    ArchRegs regs;
    regs.instIndex = seq.getUint();
    for (std::uint64_t &v : regs.r)
        v = seq.getUint();
    return regs;
}

namespace
{

/**
 * Phase of a chunk: hash-based rather than round-robin, so a
 * systematic sample can never alias with the phase schedule (a
 * sampling hazard that would bias pilot variance estimates).
 */
unsigned
chunkPhase(std::uint64_t seed, std::uint64_t chunk, std::size_t nPhases)
{
    return static_cast<unsigned>(hashVal(seed, chunk, 0, 0x9a5e) %
                                 nPhases);
}

/** Where a dynamic instruction sits: its phase and loop-body slot. */
struct Position
{
    const PhaseSpec &ph;
    InstCount chunkOff; //!< offset within the phase chunk
    unsigned slot;
};

Position
locate(const Program &prog, InstCount index)
{
    const std::uint64_t chunk = index / prog.chunkInsts;
    // Past the program's end the schedule is not tabulated; hashing
    // keeps fetch() a pure function of any index.
    const PhaseSpec &ph =
        prog.phases[chunk < prog.chunkPhases.size()
                        ? prog.chunkPhases[chunk]
                        : chunkPhase(prog.profile.seed, chunk,
                                     prog.phases.size())];
    const InstCount chunkOff = index - chunk * prog.chunkInsts;
    return {ph, chunkOff, static_cast<unsigned>(chunkOff % ph.bodySize)};
}

/**
 * hashVal(seed, index, k, salt) of the wrong path after @p index, from
 * its index half @p indexDraw = hashCombine(seed, index).
 */
std::uint64_t
wrongPathDraw(std::uint64_t indexDraw, unsigned k, std::uint64_t salt)
{
    return hashMix(hashCombine(indexDraw, hashCombine(k, salt)));
}

/** Whether wrong-path instruction k, of draw @p h, is a load. */
bool
wrongPathIsLoad(std::uint64_t h)
{
    return (h >> 24) % 100 < 30;
}

/**
 * The address of wrong-path load @p k after @p index (draw @p h, index
 * half @p indexDraw, phase @p ph). The backward scan for recent data
 * reads instructions inside @p chunk (when given) from the chunk and
 * derives the rest; the result is the same.
 */
Addr
wrongPathLoadAddr(const Program &prog, const PhaseSpec &ph,
                  std::uint64_t indexDraw, InstCount index, unsigned k,
                  std::uint64_t h, const InstChunk *chunk)
{
    if ((h >> 32) % 100 < 3) {
        // Rarely, a genuinely cold address in the region.
        return ph.regionBase +
               ((wrongPathDraw(indexDraw, k, 0xc01d) % ph.regionBytes) &
                ~7ull);
    }
    // Usually data the correct path touched recently: the same 64-byte
    // block as a nearby load/store (wrong paths mostly re-reference
    // live data, so under restricted live-state only the rare cold
    // access is unavailable). An instruction the chunk holds is read
    // from it; otherwise the slot table tells which instruction is one
    // and only that one is fetched.
    const std::uint64_t back = 1 + (h >> 40) % 32;
    Addr base = ph.regionBase;
    for (unsigned s = 0; s < 12; ++s) {
        const InstCount j = index > back + s ? index - back - s : 0;
        if (const Instruction *in = chunk ? chunk->find(j) : nullptr) {
            if (in->isMem()) {
                base = in->addr;
                break;
            }
            continue;
        }
        const Position p = locate(prog, j);
        if (p.ph.slots[p.slot].ins.isMem()) {
            base = prog.fetch(j).addr;
            break;
        }
    }
    return (base & ~63ull) + ((h >> 48) % 8) * 8;
}

} // namespace

const PhaseSpec &
Program::phaseAt(InstCount index) const
{
    return locate(*this, index).ph;
}

Instruction
Program::fetch(InstCount index) const
{
    const Position p = locate(*this, index);
    const PhaseSpec &ph = p.ph;
    const SlotSpec &s = ph.slots[p.slot];

    Instruction ins = s.ins;
    switch (s.kind) {
      case SlotKind::Plain:
        break;
      case SlotKind::RandomMem: {
        // A drifting random neighborhood: pointer-heavy code revisits
        // a working frontier that advances through the footprint.
        // Reuse mass stays short-distance (as in real programs)
        // instead of the fat uniform tail a whole-region random draw
        // would give MRRL.
        const std::uint64_t neighborhood = 32 * 1024;
        const std::uint64_t frontier = (index / 4096) * 2048;
        const std::uint64_t draw = instanceDraw(profile.seed, index, s);
        const std::uint64_t off =
            (frontier + draw % neighborhood) % ph.regionBytes;
        ins.addr = ph.regionBase + (off & ~7ull);
        break;
      }
      case SlotKind::HotMem:
        ins.addr = ph.regionBase +
                   ((instanceDraw(profile.seed, index, s) % ph.hotBytes) &
                    ~7ull);
        break;
      case SlotKind::StridedMem: {
        // Strided walk; the stride is a property of the slot.
        const std::uint64_t iter = index / ph.bodySize; // global iteration
        ins.addr = ph.regionBase +
                   (((iter * s.stride + p.slot * 8) % ph.regionBytes) &
                    ~7ull);
        break;
      }
      case SlotKind::LoopBranch:
        // Taken unless this iteration ends the chunk.
        ins.taken = p.chunkOff + 1 != chunkInsts;
        break;
      case SlotKind::NoisyBranch:
        ins.taken = toU01(instanceDraw(profile.seed, index, s)) < 0.5;
        break;
      case SlotKind::StableBranch:
        // Stable per-site direction with rare flips.
        ins.taken =
            ins.taken != (toU01(instanceDraw(profile.seed, index, s)) < 0.04);
        break;
    }
    return ins;
}

Instruction
Program::wrongPath(InstCount index, unsigned k,
                   const InstChunk *chunk) const
{
    const PhaseSpec &ph = phaseAt(index);
    const std::uint64_t indexDraw = hashCombine(profile.seed, index);
    const std::uint64_t h = wrongPathDraw(indexDraw, k, 0x3209);

    Instruction ins;
    ins.pc = ph.pcBase + (h % ph.bodySize);
    ins.dst = static_cast<std::uint8_t>(1 + (h % 15));
    ins.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
    ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
    if (wrongPathIsLoad(h)) {
        ins.op = Opcode::Load;
        ins.addr =
            wrongPathLoadAddr(*this, ph, indexDraw, index, k, h, chunk);
    } else {
        ins.op = Opcode::IntAlu;
    }
    return ins;
}

std::size_t
Program::wrongPathLoads(InstCount index, unsigned kBegin, unsigned kEnd,
                        const InstChunk *chunk, WrongPathLoad *out) const
{
    // The phase lookup and the index half of the draw are the same for
    // every k.
    const PhaseSpec &ph = phaseAt(index);
    const std::uint64_t indexDraw = hashCombine(profile.seed, index);
    std::size_t n = 0;
    for (unsigned k = kBegin; k < kEnd; ++k) {
        const std::uint64_t h = wrongPathDraw(indexDraw, k, 0x3209);
        if (!wrongPathIsLoad(h))
            continue;
        WrongPathLoad &l = out[n++];
        l.addr = wrongPathLoadAddr(*this, ph, indexDraw, index, k, h, chunk);
        l.k = k;
        l.available = true;
    }
    return n;
}

void
InstChunk::fetch(const Program &prog, InstCount first, std::size_t n,
                 const MemoryImage *availability)
{
    for (const WrongPathMemo &m : memos_)
        memoOf_[m.pos] = 0;
    memos_.clear();
    loads_.clear();
    prog_ = &prog;
    avail_ = availability;
    first_ = first;
    size_ = std::min(n, capacity);
    for (std::size_t i = 0; i < size_; ++i)
        ins_[i] = prog.fetch(first + i);
}

WrongPathLoads
InstChunk::wrongPathLoads(InstCount index, unsigned n)
{
    const std::size_t pos = static_cast<std::size_t>(index - first_);
    std::uint32_t &slot = memoOf_[pos];
    if (slot == 0) {
        // Both vectors keep their high-water mark across fetches, and
        // at most size() <= capacity memos exist at once.
        memos_.push_back({pos, 0, 0});
        loads_.resize(memos_.size() * maxWrongPathInsts);
        slot = static_cast<std::uint32_t>(memos_.size());
    }
    WrongPathMemo &m = memos_[slot - 1];
    WrongPathLoad *loads = loads_.data() + (slot - 1) * maxWrongPathInsts;
    n = std::min(n, maxWrongPathInsts);
    if (n > m.derived) {
        WrongPathLoad *added = loads + m.loads;
        const std::size_t got =
            prog_->wrongPathLoads(index, m.derived, n, this, added);
        if (avail_)
            for (std::size_t i = 0; i < got; ++i)
                added[i].available = avail_->contains(added[i].addr);
        m.loads += static_cast<unsigned>(got);
        m.derived = n;
    }
    std::size_t count = m.loads;
    while (count > 0 && loads[count - 1].k >= n)
        --count;
    return {loads, count};
}

Program
generateProgram(const WorkloadProfile &profile)
{
    Program prog;
    prog.name = profile.name;
    prog.profile = profile;
    prog.codeBase = kCodeBase;
    prog.dataBase = kDataBase;
    prog.chunkInsts = std::max<InstCount>(profile.phaseInsts, 1'000);

    const std::uint64_t seed = profile.seed;
    const unsigned nPhases = std::max(1u, profile.phases);
    const std::uint64_t footprint =
        std::max<std::uint64_t>(profile.footprintBytes, 1u << 20);
    // Phase regions overlap so their union approximates the footprint
    // while consecutive phases still share data.
    const std::uint64_t regionBytes = std::max<std::uint64_t>(
        footprint / 2, 256 * 1024);
    const std::uint64_t step =
        nPhases > 1 ? (footprint - regionBytes) / (nPhases - 1) : 0;

    for (unsigned p = 0; p < nPhases; ++p) {
        PhaseSpec ph;
        ph.regionBase = kDataBase + ((step * p) & ~4095ull);
        ph.regionBytes = regionBytes;
        ph.hotBytes = std::min<std::uint64_t>(kHotBytes, regionBytes);
        ph.pcBase = static_cast<PcIndex>(p) * 0x100000ull;
        const double v = profile.phaseVariation;
        auto mod = [&](double x, std::uint64_t salt) {
            const double f =
                1.0 + v * (2.0 * hashU01(seed, p, 0, salt) - 1.0);
            return std::clamp(x * f, 0.0, 0.45);
        };
        ph.loadFrac = mod(profile.loadFrac, 0x10ad);
        ph.storeFrac = mod(profile.storeFrac, 0x5702e);
        ph.branchFrac = mod(profile.branchFrac, 0xb2a);
        ph.fpFrac = mod(profile.fpFrac, 0xf9);
        ph.mulFrac = mod(profile.mulFrac, 0x301);
        ph.takenBias = std::clamp(
            profile.branchTakenBias +
                0.15 * (2.0 * hashU01(seed, p, 0, 0xb1a5) - 1.0),
            0.05, 0.95);
        ph.noiseFrac = std::clamp(
            profile.branchNoise *
                (1.0 + v * (2.0 * hashU01(seed, p, 0, 0x4015) - 1.0)),
            0.0, 0.8);
        ph.randomFrac = mod(profile.randomAccessFrac, 0x2a4d);
        ph.hotFrac = mod(profile.hotAccessFrac, 0x607);
        ph.bodySize = static_cast<unsigned>(std::clamp<std::uint64_t>(
            profile.loopBodySize / 2 +
                hashVal(seed, p, 0, 0xb0d) %
                    std::max(1u, profile.loopBodySize),
            32, 1024));
        ph.slots.reserve(ph.bodySize);
        for (unsigned slot = 0; slot < ph.bodySize; ++slot)
            ph.slots.push_back(deriveSlot(ph, seed, p, slot));
        prog.phases.push_back(std::move(ph));
    }

    const InstCount chunks =
        std::max<InstCount>(profile.targetInsts / prog.chunkInsts, 1);
    prog.length = chunks * prog.chunkInsts;
    prog.chunkPhases.reserve(chunks);
    for (InstCount c = 0; c < chunks; ++c)
        prog.chunkPhases.push_back(chunkPhase(seed, c, nPhases));

    // Initial data: a deterministic pattern over the first hot region
    // so early loads see nonzero values.
    prog.dataInit.resize(kHotBytes);
    for (std::size_t i = 0; i < prog.dataInit.size(); ++i)
        prog.dataInit[i] = static_cast<std::uint8_t>(
            hashVal(seed, i >> 3, 0, 0xda7a) >> ((i & 7) * 8));

    return prog;
}

InstCount
measureProgramLength(const Program &prog)
{
    return prog.length;
}

} // namespace lp
