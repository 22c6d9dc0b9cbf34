/**
 * @file
 * Pluggable backing storage for on-disk library containers. A
 * LibrarySource owns the bytes of one container file and exposes them
 * as a single contiguous range; LivePointLibrary parses records as
 * zero-copy spans into that range regardless of which backend holds
 * it:
 *
 *  - **OwnedBufferSource** — the whole file slurped into one heap
 *    Blob (the PR-3 behaviour, and the LP_NO_MMAP / mmap-less
 *    fallback). Resident memory equals file size.
 *  - **MappedFileSource** — the file mmap'ed read-only. Resident
 *    memory is whatever the kernel keeps paged in; prefetch/release
 *    hints let the replay engine stream a library larger than RAM
 *    through a bounded window.
 *
 * openLibrarySource() picks the backend: an explicit request, or
 * (auto) mmap when the platform supports it and LP_NO_MMAP is unset,
 * falling back to the owned buffer otherwise — including when a
 * particular mmap attempt fails at runtime.
 */

#ifndef LP_IO_SOURCE_HH
#define LP_IO_SOURCE_HH

#include <memory>
#include <string>

#include "io/mapped_file.hh"
#include "util/types.hh"

namespace lp
{

/** How a library container's bytes are held in memory. */
enum class StorageBackend
{
    autoSelect, //!< mmap when available, owned buffer otherwise
    buffer,     //!< read the whole file into the heap
    mapped      //!< mmap read-only (throws where unsupported)
};

/** Human-readable backend name ("auto" / "owned-buffer" / "mmap"). */
const char *storageBackendName(StorageBackend b);

class LibrarySource
{
  public:
    virtual ~LibrarySource() = default;

    virtual const std::uint8_t *data() const = 0;
    virtual std::size_t size() const = 0;

    /** Backend name for diagnostics ("owned-buffer" / "mmap"). */
    virtual const char *kind() const = 0;

    /** True when the bytes are a file mapping, not heap storage. */
    virtual bool mapped() const { return false; }

    /**
     * Heap bytes this source pins regardless of access pattern. A
     * mapping pins none (the kernel pages on demand); an owned buffer
     * pins its whole size.
     */
    virtual std::size_t pinnedBytes() const { return size(); }

    /** Hint: [offset, offset+len) will be read soon. */
    virtual void prefetch(std::size_t offset, std::size_t len) const
    {
        (void)offset;
        (void)len;
    }

    /** Hint: [offset, offset+len) will not be read again soon. */
    virtual void release(std::size_t offset, std::size_t len) const
    {
        (void)offset;
        (void)len;
    }
};

/** The whole container file in one heap buffer. */
class OwnedBufferSource final : public LibrarySource
{
  public:
    explicit OwnedBufferSource(Blob data) : data_(std::move(data)) {}

    const std::uint8_t *data() const override { return data_.data(); }
    std::size_t size() const override { return data_.size(); }
    const char *kind() const override { return "owned-buffer"; }

  private:
    Blob data_;
};

/** The container file mmap'ed read-only. */
class MappedFileSource final : public LibrarySource
{
  public:
    explicit MappedFileSource(MappedFile file) : file_(std::move(file))
    {
        file_.adviseSequential();
    }

    const std::uint8_t *data() const override { return file_.data(); }
    std::size_t size() const override { return file_.size(); }
    const char *kind() const override { return "mmap"; }
    bool mapped() const override { return true; }
    std::size_t pinnedBytes() const override { return 0; }

    void prefetch(std::size_t offset, std::size_t len) const override
    {
        file_.willNeed(offset, len);
    }

    void release(std::size_t offset, std::size_t len) const override
    {
        file_.dontNeed(offset, len);
    }

  private:
    MappedFile file_;
};

/**
 * Open @p path under @p backend. autoSelect maps when the platform
 * can and LP_NO_MMAP is unset, and degrades to the owned buffer when
 * the mmap attempt itself fails; an explicit `mapped` request
 * propagates the failure instead. Throws when the file cannot be
 * read at all.
 */
std::shared_ptr<const LibrarySource>
openLibrarySource(const std::string &path, StorageBackend backend);

/**
 * Read all of @p path into a heap buffer, throwing on a missing file
 * or short read; @p what names the file's role in error messages
 * ("library", "library-set index").
 */
Blob readWholeFile(const std::string &path, const char *what);

} // namespace lp

#endif // LP_IO_SOURCE_HH
