#include "codec/der.hh"

#include <cstring>
#include <stdexcept>

namespace lp
{

namespace
{

constexpr std::uint8_t kTagUint = 0x02;
constexpr std::uint8_t kTagBytes = 0x04;
constexpr std::uint8_t kTagString = 0x0C;
constexpr std::uint8_t kTagSequence = 0x30;

std::size_t
lenOfLen(std::size_t len)
{
    if (len < 0x80)
        return 1;
    std::size_t n = 0;
    while (len) {
        ++n;
        len >>= 8;
    }
    return 1 + n;
}

void
encodeLen(Blob &out, std::size_t len)
{
    if (len < 0x80) {
        out.push_back(static_cast<std::uint8_t>(len));
        return;
    }
    std::uint8_t tmp[8];
    std::size_t n = 0;
    while (len) {
        tmp[n++] = static_cast<std::uint8_t>(len);
        len >>= 8;
    }
    out.push_back(static_cast<std::uint8_t>(0x80 | n));
    while (n)
        out.push_back(tmp[--n]);
}

} // namespace

void
DerWriter::putTagLen(std::uint8_t tag, std::size_t len)
{
    buf_.push_back(tag);
    encodeLen(buf_, len);
}

void
DerWriter::beginSequence()
{
    buf_.push_back(kTagSequence);
    // Placeholder length byte; patched (and widened if needed) by
    // endSequence().
    buf_.push_back(0);
    open_.push_back(buf_.size());
}

void
DerWriter::endSequence()
{
    if (open_.empty())
        throw std::logic_error("der: endSequence without beginSequence");
    const std::size_t start = open_.back();
    open_.pop_back();
    const std::size_t len = buf_.size() - start;
    const std::size_t need = lenOfLen(len);
    if (need > 1) {
        // Widen the placeholder length field in place.
        buf_.insert(buf_.begin() +
                        static_cast<std::ptrdiff_t>(start - 1),
                    need - 1, 0);
    }
    Blob enc;
    encodeLen(enc, len);
    std::memcpy(&buf_[start - 1], enc.data(), enc.size());
}

void
DerWriter::putUint(std::uint64_t v)
{
    std::uint8_t tmp[10];
    std::size_t n = 0;
    while (v >= 0x80) {
        tmp[n++] = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    tmp[n++] = static_cast<std::uint8_t>(v);
    putTagLen(kTagUint, n);
    buf_.insert(buf_.end(), tmp, tmp + n);
}

void
DerWriter::putDouble(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putUint(bits);
}

void
DerWriter::putBytes(const Blob &b)
{
    putBytes(b.data(), b.size());
}

void
DerWriter::putBytes(const std::uint8_t *data, std::size_t size)
{
    putTagLen(kTagBytes, size);
    buf_.insert(buf_.end(), data, data + size);
}

void
DerWriter::putString(const std::string &s)
{
    putTagLen(kTagString, s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

Blob
DerWriter::finish()
{
    if (!open_.empty())
        throw std::logic_error("der: unclosed sequence");
    Blob out;
    out.swap(buf_);
    return out;
}

DerReader::DerReader(const Blob &data)
    : data_(data.data()), size_(data.size())
{
}

DerReader::DerReader(ByteSpan data) : data_(data.data), size_(data.size)
{
}

DerReader::DerReader(const std::uint8_t *data, std::size_t size)
    : data_(data), size_(size)
{
}

const std::uint8_t *
DerReader::expect(std::uint8_t tag, std::size_t &len)
{
    if (pos_ >= size_)
        throw std::runtime_error("der: read past end");
    const std::uint8_t got = data_[pos_++];
    if (got != tag)
        throw std::runtime_error("der: unexpected tag");
    if (pos_ >= size_)
        throw std::runtime_error("der: truncated length");
    std::uint8_t first = data_[pos_++];
    if (first < 0x80) {
        len = first;
    } else {
        const unsigned n = first & 0x7f;
        if (n == 0 || n > 8 || pos_ + n > size_)
            throw std::runtime_error("der: bad length");
        len = 0;
        for (unsigned i = 0; i < n; ++i)
            len = (len << 8) | data_[pos_++];
    }
    if (len > size_ - pos_) // overflow-safe bounds check
        throw std::runtime_error("der: truncated content");
    const std::uint8_t *content = data_ + pos_;
    pos_ += len;
    return content;
}

namespace
{

/**
 * The one integer decoder: LEB128 content of @p len bytes. Shared by
 * getUint() and getUints() so both apply exactly the same checks.
 */
inline std::uint64_t
decodeUint(const std::uint8_t *p, std::size_t len)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (std::size_t i = 0; i < len; ++i) {
        // 10 groups of 7 bits fill 64; an 11th would shift past the
        // word (undefined behaviour on crafted input, caught by the
        // codec fuzz suite).
        if (shift > 63)
            throw std::runtime_error("der: oversized uint");
        v |= static_cast<std::uint64_t>(p[i] & 0x7f) << shift;
        shift += 7;
        if (!(p[i] & 0x80)) {
            if (i + 1 != len)
                throw std::runtime_error("der: malformed uint");
            return v;
        }
    }
    throw std::runtime_error("der: unterminated uint");
}

} // namespace

std::uint64_t
DerReader::getUint()
{
    std::size_t len = 0;
    const std::uint8_t *p = expect(kTagUint, len);
    return decodeUint(p, len);
}

void
DerReader::getUints(std::uint64_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t len = 0;
        const std::uint8_t *p = expect(kTagUint, len);
        out[i] = decodeUint(p, len);
    }
}

double
DerReader::getDouble()
{
    const std::uint64_t bits = getUint();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

Blob
DerReader::getBytes()
{
    std::size_t len = 0;
    const std::uint8_t *p = expect(kTagBytes, len);
    return Blob(p, p + len);
}

void
DerReader::getBytes(Blob &out)
{
    std::size_t len = 0;
    const std::uint8_t *p = expect(kTagBytes, len);
    out.assign(p, p + len);
}

ByteSpan
DerReader::getBytesSpan()
{
    std::size_t len = 0;
    const std::uint8_t *p = expect(kTagBytes, len);
    return ByteSpan(p, len);
}

std::string
DerReader::getString()
{
    std::size_t len = 0;
    const std::uint8_t *p = expect(kTagString, len);
    return std::string(reinterpret_cast<const char *>(p), len);
}

DerReader
DerReader::getSequence()
{
    std::size_t len = 0;
    const std::uint8_t *p = expect(kTagSequence, len);
    return DerReader(p, len);
}

} // namespace lp
