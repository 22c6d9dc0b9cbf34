/**
 * @file
 * DER-style tagged binary serialization for on-disk libraries: every
 * value is a (tag, length, content) triple, sequences nest, and the
 * encoding of a given value is unique, so serialized live-points can
 * be compared byte-for-byte in round-trip tests.
 *
 * Tags: 0x02 unsigned integer (LEB128 content), 0x04 octet string,
 * 0x0C UTF-8 string, 0x30 sequence.
 */

#ifndef LP_CODEC_DER_HH
#define LP_CODEC_DER_HH

#include <cstddef>
#include <string>

#include "util/types.hh"

namespace lp
{

/** Serializer producing a tagged binary blob. */
class DerWriter
{
  public:
    /** Open a nested sequence; must be matched by endSequence(). */
    void beginSequence();

    /** Close the innermost open sequence. */
    void endSequence();

    /** Append an unsigned integer. */
    void putUint(std::uint64_t v);

    /** Append a double (encoded via its IEEE-754 bit pattern). */
    void putDouble(double v);

    /** Append an octet string. */
    void putBytes(const Blob &b);

    /** Append raw octets (same wire form as putBytes). */
    void putBytes(const std::uint8_t *data, std::size_t size);

    /** Append a UTF-8 string. */
    void putString(const std::string &s);

    /** Finish encoding and return the blob. All sequences must be closed. */
    Blob finish();

  private:
    void putTagLen(std::uint8_t tag, std::size_t len);

    Blob buf_;
    std::vector<std::size_t> open_; //!< offsets of open sequence headers
};

/** Cursor over a DER blob (or a nested sequence within one). */
class DerReader
{
  public:
    /** View an entire encoded blob. @p data must outlive the reader. */
    explicit DerReader(const Blob &data);

    /**
     * View encoded bytes borrowed from any backing storage (an
     * owned buffer, a file mapping). The storage must outlive the
     * reader and everything it hands out.
     */
    explicit DerReader(ByteSpan data);

    /** True when no values remain at this nesting level. */
    bool atEnd() const { return pos_ >= size_; }

    /** Encoded bytes not yet read at this nesting level. */
    std::size_t remaining() const { return size_ - pos_; }

    /** Read the next value as an unsigned integer. */
    std::uint64_t getUint();

    /**
     * Read the next @p n values as unsigned integers into @p out —
     * exactly what n getUint() calls would return (or throw), in one
     * pass with the per-call overhead hoisted out of the loop.
     */
    void getUints(std::uint64_t *out, std::size_t n);

    /** Read the next value as a double. */
    double getDouble();

    /** Read the next value as an octet string. */
    Blob getBytes();

    /** Read the next octet string into @p out, reusing its storage. */
    void getBytes(Blob &out);

    /**
     * Read the next octet string as a borrowed view into the encoded
     * buffer — no copy. Valid as long as the underlying blob lives.
     */
    ByteSpan getBytesSpan();

    /** Read the next value as a UTF-8 string. */
    std::string getString();

    /** Enter the next value, which must be a sequence. */
    DerReader getSequence();

  private:
    DerReader(const std::uint8_t *data, std::size_t size);

    const std::uint8_t *expect(std::uint8_t tag, std::size_t &len);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace lp

#endif // LP_CODEC_DER_HH
