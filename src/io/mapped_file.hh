/**
 * @file
 * RAII read-only memory mapping: the one way a container's bytes are
 * held. A MappedFile exposes a whole file as one contiguous byte range
 * without copying it into the heap — the kernel pages bytes in on
 * first touch and can drop clean pages under memory pressure, which is
 * what lets a library (or a fleet of them) larger than RAM back the
 * replay engine.
 *
 * The mapping carries a single paging hint: sequential readahead for
 * the full-scan paths (contentHash, save).
 */

#ifndef LP_IO_MAPPED_FILE_HH
#define LP_IO_MAPPED_FILE_HH

#include <cstddef>
#include <string>

#include "util/types.hh"

namespace lp
{

class MappedFile
{
  public:
    /** An empty, unmapped handle. */
    MappedFile() = default;

    /**
     * Map @p path read-only in its entirety. Throws an IoError naming
     * the file on a missing file or a map failure. An empty file maps
     * to a valid zero-length handle.
     */
    static MappedFile map(const std::string &path);

    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool mapped() const { return data_ != nullptr; }

    /** Hint: the whole file will be read front to back. */
    void adviseSequential() const;

  private:
    MappedFile(std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    void unmap() noexcept;

    std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace lp

#endif // LP_IO_MAPPED_FILE_HH
