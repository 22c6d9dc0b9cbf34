#include "mrrl/mrrl.hh"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "util/log.hh"
#include "util/threadpool.hh"

namespace lp
{

namespace
{

constexpr Addr kBlockBytes = 64;

/** No touch yet: no instruction index is this large. */
constexpr InstCount kNever = ~InstCount(0);

Addr
blockOf(Addr addr)
{
    return addr - addr % kBlockBytes;
}

/**
 * The windows' distinct blocks in an open-addressing table whose slot
 * is each block's id: the scan's last-touch arrays are indexed by it.
 * Sized once to at least twice its entries and never grown.
 */
class BlockTable
{
  public:
    explicit BlockTable(std::size_t entries)
    {
        unsigned bits = 4;
        while ((std::size_t{1} << bits) < 2 * entries)
            ++bits;
        shift_ = 64 - bits;
        keys_.assign(std::size_t{1} << bits, kEmpty);
    }

    std::size_t capacity() const { return keys_.size(); }

    /** The slot of @p block, claiming an empty one if it is new. */
    std::size_t insert(Addr block)
    {
        std::size_t i = hash(block) >> shift_;
        while (keys_[i] != block && keys_[i] != kEmpty)
            i = (i + 1) & (keys_.size() - 1);
        keys_[i] = block;
        return i;
    }

    /** The slot of @p block, or capacity() if no window touches it. */
    std::size_t find(Addr block) const
    {
        for (std::size_t i = hash(block) >> shift_;;
             i = (i + 1) & (keys_.size() - 1)) {
            if (keys_[i] == block)
                return i;
            if (keys_[i] == kEmpty)
                return keys_.size();
        }
    }

  private:
    /** Never a block: a block address has its low six bits clear. */
    static constexpr Addr kEmpty = ~Addr(0);

    static std::uint64_t hash(Addr block)
    {
        return block / kBlockBytes * 0x9e3779b97f4a7c15ull;
    }

    std::vector<Addr> keys_;
    unsigned shift_ = 0;
};

/** Window @p w's coverage-quantile distance and how many there are. */
void
closeWindow(std::vector<InstCount> &distances, double coverage,
            MrrlAnalysis &out, std::size_t w)
{
    if (distances.empty())
        return;
    std::sort(distances.begin(), distances.end());
    const std::size_t q = std::min(
        distances.size() - 1,
        static_cast<std::size_t>(coverage *
                                 static_cast<double>(distances.size())));
    out.warmingLengths[w] = distances[q];
    out.reusedBlocks[w] = distances.size();
}

} // namespace

MrrlAnalysis
analyzeMrrl(const Program &prog,
            const std::vector<InstCount> &starts, InstCount windowLen,
            double coverage, ThreadPool *pool)
{
    for (std::size_t w = 1; w < starts.size(); ++w)
        if (starts[w] < starts[w - 1] ||
            starts[w] - starts[w - 1] < windowLen)
            throw std::invalid_argument(strfmt(
                "analyzeMrrl: window %zu (start %llu) overlaps or "
                "precedes window %zu (start %llu, length %llu); "
                "windows must be sorted and disjoint",
                w, static_cast<unsigned long long>(starts[w]), w - 1,
                static_cast<unsigned long long>(starts[w - 1]),
                static_cast<unsigned long long>(windowLen)));

    MrrlAnalysis out;
    out.coverage = coverage;
    out.warmingLengths.assign(starts.size(), 0);
    out.reusedBlocks.assign(starts.size(), 0);

    // Windows starting at or past the end touch nothing; they are the
    // sorted list's tail.
    const std::size_t live = static_cast<std::size_t>(
        std::lower_bound(starts.begin(), starts.end(), prog.length) -
        starts.begin());
    if (live == 0 || windowLen == 0)
        return out;

    // Each window's distinct blocks, from one fetch of the window:
    // window w's are blocks[winOff[w], winOff[w + 1]).
    std::vector<Addr> blocks;
    std::vector<std::size_t> winOff(live + 1, 0);
    for (std::size_t w = 0; w < live; ++w) {
        const InstCount end =
            starts[w] + std::min(windowLen, prog.length - starts[w]);
        for (InstCount i = starts[w]; i < end; ++i) {
            const Instruction ins = prog.fetch(i);
            if (ins.isMem())
                blocks.push_back(blockOf(ins.addr));
        }
        const auto first = blocks.begin() + winOff[w];
        std::sort(first, blocks.end());
        blocks.erase(std::unique(first, blocks.end()), blocks.end());
        winOff[w + 1] = blocks.size();
    }

    // Their union, and each window block's slot in it.
    BlockTable table(blocks.size());
    std::vector<std::size_t> winSlots(blocks.size());
    for (std::size_t k = 0; k < blocks.size(); ++k)
        winSlots[k] = table.insert(blocks[k]);

    // Scan [0, last live start) as one contiguous range per worker.
    // Range r covers [lo[r], lo[r + 1]) and owns the windows starting
    // in it (the last range also the one starting at the scan's end),
    // windows [firstWin[r], firstWin[r + 1]).
    const unsigned workers = pool ? pool->size() : 1;
    const InstCount scanEnd = starts[live - 1];
    std::vector<InstCount> lo(workers + 1);
    std::vector<std::size_t> firstWin(workers + 1, live);
    for (unsigned r = 0; r < workers; ++r) {
        lo[r] = scanEnd / workers * r + scanEnd % workers * r / workers;
        firstWin[r] = static_cast<std::size_t>(
            std::lower_bound(starts.begin(), starts.begin() + live,
                             lo[r]) -
            starts.begin());
    }
    lo[workers] = scanEnd;

    // Each range records the last touch of every table block within
    // it and, at each window start it owns, snapshots that window's
    // blocks' last touch so far in the range.
    std::vector<std::vector<InstCount>> rangeLast(workers);
    std::vector<InstCount> snap(blocks.size());
    const std::function<void(unsigned)> scanRange = [&](unsigned r) {
        std::vector<InstCount> &last = rangeLast[r];
        last.assign(table.capacity(), kNever);
        InstCount i = lo[r];
        auto scanTo = [&](InstCount end) {
            for (; i < end; ++i) {
                const Instruction ins = prog.fetch(i);
                if (!ins.isMem())
                    continue;
                const std::size_t s = table.find(blockOf(ins.addr));
                if (s != table.capacity())
                    last[s] = i;
            }
        };
        for (std::size_t w = firstWin[r]; w < firstWin[r + 1]; ++w) {
            scanTo(starts[w]);
            for (std::size_t k = winOff[w]; k < winOff[w + 1]; ++k)
                snap[k] = last[winSlots[k]];
        }
        scanTo(lo[r + 1]);
    };
    if (pool)
        pool->run(scanRange);
    else
        scanRange(0);

    // Combine in index order: a block's last touch before a window is
    // its range's snapshot or, if the range had not touched it yet,
    // the latest touch of the ranges before.
    std::vector<InstCount> carried(table.capacity(), kNever);
    std::vector<InstCount> distances;
    for (unsigned r = 0; r < workers; ++r) {
        for (std::size_t w = firstWin[r]; w < firstWin[r + 1]; ++w) {
            distances.clear();
            for (std::size_t k = winOff[w]; k < winOff[w + 1]; ++k) {
                const InstCount t =
                    snap[k] != kNever ? snap[k] : carried[winSlots[k]];
                if (t != kNever)
                    distances.push_back(starts[w] - t);
            }
            closeWindow(distances, coverage, out, w);
        }
        for (std::size_t s = 0; s < carried.size(); ++s)
            if (rangeLast[r][s] != kNever)
                carried[s] = rangeLast[r][s];
    }
    return out;
}

} // namespace lp
