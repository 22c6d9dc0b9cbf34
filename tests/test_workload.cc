/**
 * Same-seed reproducibility of programs and functional execution, and
 * the instruction stream's definition: fetch() and wrongPath() read
 * per-slot and per-chunk tables, and must equal the per-instruction
 * hash derivation kept here as the oracle, on every suite profile;
 * wrongPath() reading its lookback from a fetched InstChunk must
 * equal wrongPath() without one. The loads-only derivation the core
 * uses (Program::wrongPathLoads and the InstChunk memo over it) must
 * equal the oracle's loads, however the memo's n grows. Golden
 * digests pin the stream itself across builds.
 */

#include "test_util.hh"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "func/functional.hh"
#include "mem/memport.hh"
#include "util/rng.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace
{

using namespace lp;

// --- The oracle: every field derived from hashes on every call --------

double
refU01(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
       std::uint64_t salt)
{
    const std::uint64_t h =
        hashMix(hashCombine(hashCombine(seed, a), hashCombine(b, salt)));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t
refHash(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
        std::uint64_t salt)
{
    return hashMix(hashCombine(hashCombine(seed, a), hashCombine(b, salt)));
}

Opcode
refSlotRole(const PhaseSpec &ph, std::uint64_t seed, unsigned phase,
            unsigned slot)
{
    if (slot + 1 == ph.bodySize)
        return Opcode::Bne; // loop-back branch
    const double u = refU01(seed, phase, slot, 0x201e);
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

unsigned
refChunkPhase(std::uint64_t seed, std::uint64_t chunk, std::size_t nPhases)
{
    return static_cast<unsigned>(refHash(seed, chunk, 0, 0x9a5e) %
                                 nPhases);
}

Instruction
refFetch(const Program &prog, InstCount index)
{
    const std::uint64_t seed = prog.profile.seed;
    const std::uint64_t chunk = index / prog.chunkInsts;
    const unsigned phase = refChunkPhase(seed, chunk, prog.phases.size());
    const PhaseSpec &ph = prog.phases[phase];
    const InstCount chunkOff = index % prog.chunkInsts;
    const unsigned slot = static_cast<unsigned>(chunkOff % ph.bodySize);
    const std::uint64_t iter = index / ph.bodySize; // global iteration

    Instruction ins;
    ins.op = refSlotRole(ph, seed, phase, slot);
    ins.pc = ph.pcBase + slot;

    const std::uint64_t h = refHash(seed, phase, slot, 0x0b5);
    switch (ins.op) {
      case Opcode::Load:
      case Opcode::IntAlu:
      case Opcode::IntMul:
        ins.dst = static_cast<std::uint8_t>(1 + (h % 15));
        ins.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
        ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
        break;
      case Opcode::Store:
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
        const double lu = refU01(seed, phase, slot, 0x10c);
        std::uint64_t off;
        if (lu < ph.randomFrac) {
            const std::uint64_t h2 = refHash(seed, index, slot, 0xadd);
            const std::uint64_t neighborhood = 32 * 1024;
            const std::uint64_t frontier = (index / 4096) * 2048;
            off = (frontier + (h2 % neighborhood)) % ph.regionBytes;
        } else if (lu < ph.randomFrac + ph.hotFrac) {
            off = refHash(seed, index, slot, 0x607) % ph.hotBytes;
        } else {
            const std::uint64_t stride =
                8ull << (refHash(seed, phase, slot, 0x57) % 4);
            off = (iter * stride + slot * 8) % ph.regionBytes;
        }
        ins.addr = ph.regionBase + (off & ~7ull);
    }

    if (ins.op == Opcode::Bne) {
        if (slot + 1 == ph.bodySize) {
            ins.target = ph.pcBase;
            ins.taken = (chunkOff + 1 != prog.chunkInsts);
        } else {
            ins.target = ins.pc + 1 + (h % 16);
            const bool noisy =
                refU01(seed, phase, slot, 0x4015e) < ph.noiseFrac;
            if (noisy) {
                ins.taken = refU01(seed, index, slot, 0xd1ce) < 0.5;
            } else {
                const bool dir =
                    refU01(seed, phase, slot, 0xd12) < ph.takenBias;
                const bool flip = refU01(seed, index, slot, 0xf11b) < 0.04;
                ins.taken = dir != flip;
            }
        }
    }
    return ins;
}

Instruction
refWrongPath(const Program &prog, InstCount index, unsigned k)
{
    const std::uint64_t seed = prog.profile.seed;
    const PhaseSpec &ph = prog.phases[refChunkPhase(
        seed, index / prog.chunkInsts, prog.phases.size())];
    const std::uint64_t h = refHash(seed, index, k, 0x3209);

    Instruction ins;
    ins.pc = ph.pcBase + (h % ph.bodySize);
    ins.dst = static_cast<std::uint8_t>(1 + (h % 15));
    ins.src1 = static_cast<std::uint8_t>(1 + ((h >> 8) % 15));
    ins.src2 = static_cast<std::uint8_t>(1 + ((h >> 16) % 15));
    if ((h >> 24) % 100 < 30) {
        ins.op = Opcode::Load;
        if ((h >> 32) % 100 < 3) {
            ins.addr =
                ph.regionBase +
                ((refHash(seed, index, k, 0xc01d) % ph.regionBytes) &
                 ~7ull);
        } else {
            const std::uint64_t back = 1 + (h >> 40) % 32;
            Addr base = ph.regionBase;
            for (unsigned s = 0; s < 12; ++s) {
                const InstCount j =
                    index > back + s ? index - back - s : 0;
                const Instruction recent = refFetch(prog, j);
                if (recent.isMem()) {
                    base = recent.addr;
                    break;
                }
            }
            ins.addr = (base & ~63ull) + ((h >> 48) % 8) * 8;
        }
    } else {
        ins.op = Opcode::IntAlu;
    }
    return ins;
}

// --- Comparison and digests -------------------------------------------

bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.pc == b.pc && a.target == b.target &&
           a.addr == b.addr && a.taken == b.taken;
}

std::uint64_t
digestInstruction(std::uint64_t h, const Instruction &x)
{
    h = hashCombine(h, static_cast<std::uint64_t>(x.op) |
                           static_cast<std::uint64_t>(x.dst) << 8 |
                           static_cast<std::uint64_t>(x.src1) << 16 |
                           static_cast<std::uint64_t>(x.src2) << 24 |
                           static_cast<std::uint64_t>(x.taken) << 32);
    h = hashCombine(h, x.pc);
    h = hashCombine(h, x.target);
    return hashCombine(h, x.addr);
}

/**
 * A profile whose chunks are whole loop iterations (32-slot bodies,
 * 6400-instruction chunks), so every chunk ends on a not-taken
 * loop-back branch.
 */
WorkloadProfile
loopExitProfile()
{
    WorkloadProfile p = tinyProfile(400'000, 17);
    p.name = "loop-exit";
    p.loopBodySize = 1; // clamps to the 32-slot minimum
    p.phaseInsts = 6400;
    return p;
}

/** Every suite profile, a tinyProfile, and loopExitProfile. */
std::vector<WorkloadProfile>
coveredProfiles()
{
    std::vector<WorkloadProfile> out = spec2kSuite();
    out.push_back(tinyProfile(300'000, 11));
    out.push_back(loopExitProfile());
    return out;
}

/** Oracle mismatches over one program; prints the first. */
std::uint64_t
oracleMismatches(const Program &prog, std::uint64_t &loopExits)
{
    std::uint64_t bad = 0;
    auto check = [&](InstCount i) {
        const Instruction got = prog.fetch(i);
        if (!sameInstruction(got, refFetch(prog, i)) && bad++ == 0)
            std::fprintf(stderr, "%s: fetch(%llu) differs from the oracle\n",
                         prog.name.c_str(),
                         static_cast<unsigned long long>(i));
        if (got.op == Opcode::Bne && got.target < got.pc && !got.taken)
            ++loopExits;
    };

    // Sequential windows across the first chunk boundaries and at
    // both ends of the program. In loopExitProfile every boundary
    // falls on a loop-back branch, which is then not taken.
    const InstCount chunks = prog.length / prog.chunkInsts;
    const InstCount w = std::min<InstCount>(1500, prog.chunkInsts);
    for (InstCount c = 1; c < std::min<InstCount>(chunks, 12); ++c)
        for (InstCount i = c * prog.chunkInsts - w;
             i < c * prog.chunkInsts + w; ++i)
            check(i);
    for (InstCount i = 0; i < w; ++i) {
        check(i);
        check(prog.length - 1 - i);
    }

    // Seeded random indices anywhere in the program.
    Rng rng(prog.profile.seed, "fetch-oracle");
    for (int n = 0; n < 20'000; ++n)
        check(rng.nextBounded(prog.length));

    // Wrong paths at seeded indices, for every k a core asks.
    for (int n = 0; n < 300; ++n) {
        const InstCount i = rng.nextBounded(prog.length);
        for (unsigned k = 0; k < 24; ++k)
            if (!sameInstruction(prog.wrongPath(i, k),
                                 refWrongPath(prog, i, k)) &&
                bad++ == 0)
                std::fprintf(stderr,
                             "%s: wrongPath(%llu, %u) differs from the "
                             "oracle\n",
                             prog.name.c_str(),
                             static_cast<unsigned long long>(i), k);
    }
    return bad;
}

/**
 * wrongPath through a chunk against the program-only derivation, for
 * every k a core asks: at every index near a chunk's start (its
 * lookback crosses into the instructions before the chunk), at
 * strided indices inside it, and just past its end. Chunks sit at
 * index 0 (the lookback clamps there), just after it, and at seeded
 * positions. Prints the first mismatch.
 */
std::uint64_t
chunkWrongPathMismatches(const Program &prog)
{
    InstChunk chunk;
    std::uint64_t bad = 0;
    auto check = [&](InstCount i) {
        for (unsigned k = 0; k < 24; ++k)
            if (!sameInstruction(prog.wrongPath(i, k, &chunk),
                                 prog.wrongPath(i, k)) &&
                bad++ == 0)
                std::fprintf(stderr,
                             "%s: wrongPath(%llu, %u) through the chunk "
                             "at %llu differs\n",
                             prog.name.c_str(),
                             static_cast<unsigned long long>(i), k,
                             static_cast<unsigned long long>(
                                 chunk.first()));
    };
    auto checkChunk = [&](InstCount first, std::size_t len) {
        chunk.fetch(prog, first, len);
        const InstCount end = first + chunk.size();
        for (InstCount i = first; i < std::min(end, first + 48); ++i)
            check(i);
        for (InstCount i = first + 48; i < end; i += 61)
            check(i);
        for (InstCount i = end; i < end + 8; ++i)
            check(i);
    };
    checkChunk(0, 64);
    checkChunk(0, InstChunk::capacity);
    checkChunk(7, 40);
    checkChunk(30, InstChunk::capacity);
    Rng rng(prog.profile.seed, "chunk-wrong-path");
    for (int n = 0; n < 6; ++n)
        checkChunk(rng.nextBounded(prog.length - InstChunk::capacity),
                   1 + rng.nextBounded(InstChunk::capacity));
    return bad;
}

/** The loads among refWrongPath(index, k) for k < n, in k order. */
std::vector<WrongPathLoad>
refWrongPathLoads(const Program &prog, InstCount index, unsigned n,
                  const MemoryImage *avail = nullptr)
{
    std::vector<WrongPathLoad> out;
    for (unsigned k = 0; k < n; ++k) {
        const Instruction ins = refWrongPath(prog, index, k);
        if (ins.op != Opcode::Load)
            continue;
        WrongPathLoad l;
        l.addr = ins.addr;
        l.k = k;
        l.available = !avail || avail->contains(ins.addr);
        out.push_back(l);
    }
    return out;
}

bool
sameLoads(const WrongPathLoad *got, std::size_t count,
          const std::vector<WrongPathLoad> &want)
{
    if (count != want.size())
        return false;
    for (std::size_t i = 0; i < count; ++i)
        if (got[i].k != want[i].k || got[i].addr != want[i].addr ||
            got[i].available != want[i].available)
            return false;
    return true;
}

/**
 * The loads-only wrong-path derivation against the oracle restricted
 * to loads, for every k < maxWrongPathInsts. Without a chunk
 * (Program::wrongPathLoads), at every index whose lookback reaches
 * index 0 and at seeded ones, whole and split at every k. Through
 * chunks (InstChunk::wrongPathLoads), at the same chunk positions as
 * chunkWrongPathMismatches, each index asked for a small n and then
 * the largest n, and in a second chunk in the opposite order, with an
 * availability image holding some of the addresses. Prints the first
 * mismatch.
 */
std::uint64_t
wrongPathLoadMismatches(const Program &prog)
{
    constexpr unsigned kMax = maxWrongPathInsts;
    std::uint64_t bad = 0;
    auto report = [&](const char *what, InstCount i, unsigned n) {
        if (bad++ == 0)
            std::fprintf(stderr,
                         "%s: wrong-path loads (%s) after %llu, n %u, "
                         "differ from the oracle\n",
                         prog.name.c_str(), what,
                         static_cast<unsigned long long>(i), n);
    };

    WrongPathLoad out[kMax];
    auto checkProgram = [&](InstCount i) {
        const std::vector<WrongPathLoad> want =
            refWrongPathLoads(prog, i, kMax);
        if (!sameLoads(out, prog.wrongPathLoads(i, 0, kMax, nullptr, out),
                       want))
            report("program", i, kMax);
        for (unsigned mid = 1; mid < kMax; ++mid) {
            std::size_t n = prog.wrongPathLoads(i, 0, mid, nullptr, out);
            n += prog.wrongPathLoads(i, mid, kMax, nullptr, out + n);
            if (!sameLoads(out, n, want))
                report("program, split", i, mid);
        }
    };
    for (InstCount i = 0; i < 48; ++i)
        checkProgram(i);
    Rng rng(prog.profile.seed, "wrong-path-loads");
    for (int n = 0; n < 64; ++n)
        checkProgram(rng.nextBounded(prog.length));

    // Two chunks over the same instructions: `up` asks each index for
    // a small n first, `down` for kMax first.
    InstChunk up;
    InstChunk down;
    SparseMemory mem;
    auto checkChunk = [&](InstCount first, std::size_t len) {
        MemoryImage avail;
        for (InstCount j = first; j < first + len; j += 2) {
            const Instruction ins = prog.fetch(j);
            if (ins.isMem())
                avail.captureBeforeAccess(mem, ins.addr);
        }
        up.fetch(prog, first, len, &avail);
        down.fetch(prog, first, len, &avail);
        auto check = [&](InstCount i) {
            const unsigned small =
                1 + static_cast<unsigned>(rng.nextBounded(kMax));
            const std::vector<WrongPathLoad> all =
                refWrongPathLoads(prog, i, kMax, &avail);
            std::vector<WrongPathLoad> prefix;
            for (const WrongPathLoad &l : all)
                if (l.k < small)
                    prefix.push_back(l);
            WrongPathLoads got = up.wrongPathLoads(i, small);
            if (!sameLoads(got.first, got.count, prefix))
                report("chunk, small n first", i, small);
            got = up.wrongPathLoads(i, kMax);
            if (!sameLoads(got.first, got.count, all))
                report("chunk, extended", i, kMax);
            got = down.wrongPathLoads(i, kMax);
            if (!sameLoads(got.first, got.count, all))
                report("chunk, largest n first", i, kMax);
            got = down.wrongPathLoads(i, small);
            if (!sameLoads(got.first, got.count, prefix))
                report("chunk, prefix", i, small);
        };
        const InstCount end = first + up.size();
        for (InstCount i = first; i < std::min(end, first + 48); ++i)
            check(i);
        for (InstCount i = first + 48; i < end; i += 61)
            check(i);
        check(end - 1);
    };
    checkChunk(0, 64);
    checkChunk(0, InstChunk::capacity);
    checkChunk(7, 40);
    checkChunk(30, InstChunk::capacity);
    for (int n = 0; n < 6; ++n)
        checkChunk(rng.nextBounded(prog.length - InstChunk::capacity),
                   1 + rng.nextBounded(InstChunk::capacity));
    return bad;
}

/** Digest of fetch and wrongPath over fixed index sets. */
std::uint64_t
streamDigest(const Program &prog)
{
    std::uint64_t h = hashMix(prog.length);
    for (InstCount i = 0; i < 4096; ++i)
        h = digestInstruction(h, prog.fetch(i));
    for (InstCount i = prog.chunkInsts - 512; i < prog.chunkInsts + 512;
         ++i)
        h = digestInstruction(h, prog.fetch(i));
    Rng rng(7, "stream-digest");
    for (int n = 0; n < 4096; ++n)
        h = digestInstruction(h, prog.fetch(rng.nextBounded(prog.length)));
    for (int n = 0; n < 64; ++n) {
        const InstCount i = rng.nextBounded(prog.length);
        for (unsigned k = 0; k < 24; ++k)
            h = digestInstruction(h, prog.wrongPath(i, k));
    }
    return h;
}

/**
 * Golden pins: streamDigest of each covered profile, recorded from the
 * per-instruction derivation. A mismatch means the simulated stream
 * changed, and with it every library and estimate built on it.
 */
const std::map<std::string, std::uint64_t> kStreamDigests = {
    {"gzip-1", 0xff1531cde1f98397ull},
    {"vpr-route", 0x2df5f6a0b7d09d7dull},
    {"gcc-2", 0xb4d84f1c72438199ull},
    {"mcf", 0xb656e81071f6a0c6ull},
    {"crafty", 0xf146dd2dbc65640cull},
    {"parser", 0x46e5dea441ff7eacull},
    {"eon-2", 0x1af8ce76cc5518a6ull},
    {"perlbmk", 0x3b50d55711f0e5f5ull},
    {"gap", 0x20a94f1018ea0877ull},
    {"vortex-2", 0xd1b7d3069b4622b5ull},
    {"bzip2-1", 0xd378e20ddf5d08cdull},
    {"twolf", 0x00ea208dd141ca21ull},
    {"wupwise", 0xb6ec4187391c80faull},
    {"swim", 0x5e0df6e6bcaf26b1ull},
    {"mgrid", 0xb7a6c5ddfc2adfaeull},
    {"applu", 0x81418f2d39c852c2ull},
    {"mesa", 0x77156e5b9ae5889aull},
    {"art-1", 0x85f8085398fd547cull},
    {"equake", 0xc70b002dbe7b1aaeull},
    {"facerec", 0xa267c8165403eadbull},
    {"ammp", 0xc49f04be68a8d5ffull},
    {"lucas", 0x2db5f33c04a5e937ull},
    {"fma3d", 0xa2e1ff306c5a76bcull},
    {"apsi", 0x458cd64222011fadull},
    {"tiny", 0x55edb6f461d180a0ull},
    {"loop-exit", 0x455576ff380d8bc8ull},
};

} // namespace

int
main()
{
    using namespace lp;

    // fetch() and wrongPath() equal the oracle on every covered
    // profile, including chunk-final loop exits, and wrongPath()
    // through a chunk equals wrongPath() without one; so do the
    // loads-only derivation and the chunk's wrong-path memo.
    {
        std::uint64_t loopExits = 0;
        for (const WorkloadProfile &p : coveredProfiles()) {
            const Program prog = generateProgram(p);
            CHECK_EQ(oracleMismatches(prog, loopExits), 0u);
            CHECK_EQ(chunkWrongPathMismatches(prog), 0u);
            CHECK_EQ(wrongPathLoadMismatches(prog), 0u);
        }
        CHECK(loopExits > 0);
    }

    // The stream equals its golden digests (a profile without one is
    // checked against 0, which prints its digest).
    for (const WorkloadProfile &p : coveredProfiles()) {
        const auto it = kStreamDigests.find(p.name);
        const std::uint64_t pinned =
            it == kStreamDigests.end() ? 0 : it->second;
        const std::uint64_t digest = streamDigest(generateProgram(p));
        if (digest != pinned)
            std::fprintf(stderr, "%s:\n", p.name.c_str());
        CHECK_PIN(digest, pinned);
    }

    const WorkloadProfile profile = tinyProfile(300'000, 11);

    // generateProgram is deterministic: identical streams.
    {
        const Program a = generateProgram(profile);
        const Program b = generateProgram(profile);
        CHECK_EQ(a.length, b.length);
        CHECK(measureProgramLength(a) == a.length);
        for (InstCount i = 0; i < a.length; i += 97) {
            const Instruction x = a.fetch(i);
            const Instruction y = b.fetch(i);
            CHECK(x.op == y.op);
            CHECK_EQ(x.pc, y.pc);
            CHECK_EQ(x.addr, y.addr);
            CHECK(x.taken == y.taken);
        }
    }

    // Different seeds give different streams.
    {
        WorkloadProfile other = profile;
        other.seed = 12;
        const Program a = generateProgram(profile);
        const Program b = generateProgram(other);
        bool anyDiff = false;
        for (InstCount i = 0; i < a.length && !anyDiff; i += 13) {
            const Instruction x = a.fetch(i);
            const Instruction y = b.fetch(i);
            anyDiff = x.op != y.op || x.addr != y.addr;
        }
        CHECK(anyDiff);
    }

    // Two functional runs land in identical architectural state, and
    // fetch() is consistent with resumption from any point.
    {
        const Program prog = generateProgram(profile);
        FunctionalSimulator a(prog);
        FunctionalSimulator b(prog);
        a.run(prog.length);
        b.run(prog.length / 3);
        b.run(prog.length); // clamps at program end
        CHECK(a.finished() && b.finished());
        CHECK_EQ(a.regs().instIndex, b.regs().instIndex);
        for (int i = 0; i < 32; ++i)
            CHECK_EQ(a.regs().r[i], b.regs().r[i]);
        CHECK_EQ(a.memory().footprintBytes(),
                 b.memory().footprintBytes());
    }

    // ArchRegs serialization round-trips.
    {
        const Program prog = generateProgram(profile);
        FunctionalSimulator sim(prog);
        sim.run(12345);
        const Blob data = sim.regs().serialize();
        DerReader r(data);
        const ArchRegs back = ArchRegs::deserialize(r);
        CHECK_EQ(back.instIndex, sim.regs().instIndex);
        for (int i = 0; i < 32; ++i)
            CHECK_EQ(back.r[i], sim.regs().r[i]);
    }

    // The instruction mix roughly matches the profile.
    {
        const Program prog = generateProgram(profile);
        InstCount mem = 0;
        InstCount branches = 0;
        const InstCount probe = std::min<InstCount>(prog.length, 100'000);
        for (InstCount i = 0; i < probe; ++i) {
            const Instruction ins = prog.fetch(i);
            if (ins.isMem())
                ++mem;
            if (ins.isBranch())
                ++branches;
        }
        const double memFrac =
            static_cast<double>(mem) / static_cast<double>(probe);
        const double brFrac =
            static_cast<double>(branches) / static_cast<double>(probe);
        CHECK(memFrac > 0.15 && memFrac < 0.60);
        CHECK(brFrac > 0.05 && brFrac < 0.40);
    }

    return TEST_MAIN_RESULT();
}
