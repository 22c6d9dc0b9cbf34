#include "mem/memport.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace lp
{

SparseMemory::Page &
SparseMemory::page(Addr a)
{
    const std::uint64_t idx = a / pageBytes;
    auto it = pages_.find(idx);
    if (it == pages_.end())
        it = pages_.emplace(idx, std::make_unique<Page>()).first;
    return *it->second;
}

std::uint64_t
SparseMemory::read64(Addr a)
{
    // Accesses are 8-aligned by construction; straddling reads take
    // the slow path.
    if ((a % pageBytes) + 8 <= pageBytes) {
        std::uint64_t v;
        std::memcpy(&v, &page(a).data[a % pageBytes], 8);
        return v;
    }
    std::uint8_t tmp[8];
    readBytes(a, tmp, 8);
    std::uint64_t v;
    std::memcpy(&v, tmp, 8);
    return v;
}

void
SparseMemory::write64(Addr a, std::uint64_t v)
{
    if ((a % pageBytes) + 8 <= pageBytes) {
        std::memcpy(&page(a).data[a % pageBytes], &v, 8);
        return;
    }
    std::uint8_t tmp[8];
    std::memcpy(tmp, &v, 8);
    writeBytes(a, tmp, 8);
}

void
SparseMemory::readBytes(Addr a, std::uint8_t *out, std::size_t n)
{
    while (n) {
        const std::size_t off = a % pageBytes;
        const std::size_t chunk =
            std::min<std::size_t>(n, pageBytes - off);
        std::memcpy(out, &page(a).data[off], chunk);
        a += chunk;
        out += chunk;
        n -= chunk;
    }
}

void
SparseMemory::writeBytes(Addr a, const std::uint8_t *data, std::size_t n)
{
    while (n) {
        const std::size_t off = a % pageBytes;
        const std::size_t chunk =
            std::min<std::size_t>(n, pageBytes - off);
        std::memcpy(&page(a).data[off], data, chunk);
        a += chunk;
        data += chunk;
        n -= chunk;
    }
}

std::uint64_t
SparseMemory::footprintBytes() const
{
    return pages_.size() * pageBytes;
}

SparseMemory
SparseMemory::clone() const
{
    SparseMemory out;
    out.pages_.reserve(pages_.size());
    for (const auto &kv : pages_) {
        auto p = std::make_unique<Page>();
        std::memcpy(p->data, kv.second->data, pageBytes);
        out.pages_.emplace(kv.first, std::move(p));
    }
    return out;
}

MemoryImage::MemoryImage(unsigned blockBytes) : blockBytes_(blockBytes) {}

void
MemoryImage::captureBeforeAccess(SparseMemory &mem, Addr a)
{
    if (flat_)
        throw std::logic_error("MemoryImage: capture into replay image");
    const Addr base = a - (a % blockBytes_);
    auto it = blocks_.lower_bound(base);
    if (it != blocks_.end() && it->first == base)
        return;
    std::vector<std::uint8_t> data(blockBytes_);
    mem.readBytes(base, data.data(), data.size());
    blocks_.emplace_hint(it, base, std::move(data));
}

bool
MemoryImage::contains(Addr a) const
{
    const Addr base = a - (a % blockBytes_);
    if (flat_)
        return std::binary_search(flatAddrs_.begin(), flatAddrs_.end(),
                                  base);
    return blocks_.count(base) != 0;
}

std::uint64_t
MemoryImage::payloadBytes() const
{
    return static_cast<std::uint64_t>(blockCount()) * blockBytes_;
}

void
MemoryImage::forEach(
    const std::function<void(Addr, const std::vector<std::uint8_t> &)> &fn)
    const
{
    if (flat_) {
        std::vector<std::uint8_t> tmp(blockBytes_);
        for (std::size_t i = 0; i < flatAddrs_.size(); ++i) {
            std::memcpy(tmp.data(),
                        flatPayload_.data() + i * blockBytes_,
                        blockBytes_);
            fn(flatAddrs_[i], tmp);
        }
        return;
    }
    for (const auto &kv : blocks_)
        fn(kv.first, kv.second);
}

void
MemoryImage::serialize(DerWriter &w) const
{
    w.beginSequence();
    w.putUint(blockBytes_);
    w.putUint(blockCount());
    if (flat_) {
        for (std::size_t i = 0; i < flatAddrs_.size(); ++i) {
            w.putUint(flatAddrs_[i]);
            w.putBytes(flatPayload_.data() + i * blockBytes_,
                       blockBytes_);
        }
    } else {
        for (const auto &kv : blocks_) {
            w.putUint(kv.first);
            w.putBytes(kv.second.data(), kv.second.size());
        }
    }
    w.endSequence();
}

void
MemoryImage::deserializeInto(DerReader &r, MemoryImage &out)
{
    DerReader seq = r.getSequence();
    const std::uint64_t blockBytes = seq.getUint();
    if (blockBytes > 0xffffffffull)
        throw std::runtime_error(
            "memory image: block size exceeds 32 bits");
    out.blockBytes_ = static_cast<unsigned>(blockBytes);
    // Replay-path storage: one sorted address array plus a contiguous
    // payload buffer, both recycled point to point (the previous
    // decode-once design rebuilt a map node per block per point).
    out.flat_ = true;
    out.blocks_.clear();
    const std::uint64_t count = seq.getUint();
    // Each block encodes as at least an address integer (3 bytes) and
    // an octet string (2 bytes of header plus the block). Bounding the
    // count by that before sizing anything also keeps count *
    // blockBytes below the record size, so it cannot wrap.
    if (count > seq.remaining() / (5 + blockBytes))
        throw std::runtime_error(
            "memory image: block count exceeds the record");
    out.flatAddrs_.clear();
    out.flatAddrs_.reserve(count);
    out.flatPayload_.resize(count * out.blockBytes_);
    for (std::uint64_t i = 0; i < count; ++i) {
        const Addr base = seq.getUint();
        if (!out.flatAddrs_.empty() && base <= out.flatAddrs_.back())
            throw std::runtime_error("memory image: blocks unordered");
        out.flatAddrs_.push_back(base);
        const ByteSpan b = seq.getBytesSpan();
        if (b.size != out.blockBytes_)
            throw std::runtime_error("memory image: block size mismatch");
        std::memcpy(out.flatPayload_.data() + i * out.blockBytes_,
                    b.data, b.size);
    }
}

} // namespace lp
