#include "cache/warmstate.hh"

#include <algorithm>
#include <stdexcept>

#include "util/log.hh"

namespace lp
{

CacheSetRecord::CacheSetRecord(const CacheModel &cache)
    : geom_(cache.geometry())
{
    // Order by last access (stamps are unique); only the order is
    // kept, so the stamps need not be stored.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> byStamp;
    byStamp.reserve(cache.residentLines());
    for (std::uint64_t s = 0; s < cache.numSets(); ++s)
        for (const CacheLine &line : cache.linesOfSet(s))
            byStamp.emplace_back(line.lastAccess,
                                 (line.tag / geom_.lineBytes) * 2 +
                                     (line.dirty ? 1 : 0));
    std::sort(byStamp.begin(), byStamp.end());
    lines_.reserve(byStamp.size());
    for (const auto &sl : byStamp)
        lines_.push_back(sl.second);
}

void
CacheSetRecord::reconstruct(CacheModel &target) const
{
    if (target.geometry().lineBytes != geom_.lineBytes)
        throw std::invalid_argument(strfmt(
            "cache set record: target %s has %llu-byte lines, the "
            "record %llu-byte lines",
            target.name().c_str(),
            static_cast<unsigned long long>(target.geometry().lineBytes),
            static_cast<unsigned long long>(geom_.lineBytes)));
    target.installLines(lines_.data(), lines_.size());
}

void
CacheSetRecord::serialize(DerWriter &w) const
{
    w.beginSequence();
    w.putUint(geom_.sizeBytes);
    w.putUint(geom_.assoc);
    w.putUint(geom_.lineBytes);
    w.putUint(lines_.size());
    // Line addresses are divided by the line size with the dirty bit
    // packed into the low bit to shorten the varints; lines_ already
    // holds exactly that form.
    for (const std::uint64_t v : lines_)
        w.putUint(v);
    w.endSequence();
}

Blob
CacheSetRecord::serialize() const
{
    DerWriter w;
    serialize(w);
    return w.finish();
}

CacheSetRecord
CacheSetRecord::deserialize(DerReader &r)
{
    CacheSetRecord rec;
    deserializeInto(r, rec);
    return rec;
}

void
CacheSetRecord::deserializeInto(DerReader &r, CacheSetRecord &out)
{
    DerReader seq = r.getSequence();
    out.geom_.sizeBytes = seq.getUint();
    out.geom_.assoc = static_cast<unsigned>(seq.getUint());
    out.geom_.lineBytes = seq.getUint();
    const std::uint64_t count = seq.getUint();
    // The smallest encoded integer is 3 bytes (tag, length, one
    // content byte): a count the record cannot hold is corrupt, and
    // must not size the line vector.
    if (count > seq.remaining() / 3)
        throw std::runtime_error(
            "cache set record: line count exceeds the record");
    out.lines_.resize(static_cast<std::size_t>(count));
    seq.getUints(out.lines_.data(), out.lines_.size());
}

MemoryTimestampRecord::MemoryTimestampRecord(std::uint64_t lineBytes)
    : lineBytes_(lineBytes)
{
}

void
MemoryTimestampRecord::record(Addr a, bool write, std::uint64_t time)
{
    const Addr base = a - (a % lineBytes_);
    Stamp &s = lines_[base];
    s.time = time;
    s.dirty = s.dirty || write;
}

void
MemoryTimestampRecord::reconstruct(CacheModel &target) const
{
    target.reset();
    // Replay in timestamp order for correct LRU state at the target.
    std::vector<std::pair<std::uint64_t, Addr>> order;
    order.reserve(lines_.size());
    for (const auto &kv : lines_)
        order.emplace_back(kv.second.time, kv.first);
    std::sort(order.begin(), order.end());
    for (const auto &[time, addr] : order) {
        (void)time;
        target.access(addr, lines_.at(addr).dirty);
    }
}

Blob
MemoryTimestampRecord::serialize() const
{
    DerWriter w;
    w.beginSequence();
    w.putUint(lineBytes_);
    w.putUint(lines_.size());
    for (const auto &kv : lines_) {
        w.putUint(kv.first / lineBytes_);
        w.putUint(kv.second.time);
        w.putUint(kv.second.dirty ? 1 : 0);
    }
    w.endSequence();
    return w.finish();
}

} // namespace lp
