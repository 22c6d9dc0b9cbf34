/**
 * @file
 * Crash-safe file publication. AtomicFileWriter writes `<path>.tmp`,
 * fsyncs it, renames it over the final path, and fsyncs the parent
 * directory — the full write-temp → fsync → rename → dir-fsync
 * discipline — so a reader never observes a torn file: the target is
 * either the old complete content or the new complete content, even
 * across a crash or power loss at any point. An uncommitted writer
 * (error path, exception unwinding) removes its temp file in the
 * destructor; tempFileName() lets directory scans ignore or sweep
 * temps a crashed process left behind.
 *
 * The checksum footer (appendChecksumFooter / checksummedPayload)
 * adds end-to-end torn-write detection for small metadata files (the
 * LibrarySet index): 16 trailing bytes — footer magic + FNV-1a of the
 * payload — make any truncation or corruption detectable on read, so
 * recovery can distinguish "index is stale/torn, rescan the shards"
 * from "index is fine".
 *
 * Every system call of the sequence (the temp's open, each write, the
 * fsync, the rename and the directory fsync) goes through
 * retrySyscall (util/retry.hh): it retries transient errnos (EINTR,
 * bounded EAGAIN), and a write continues after a short write. Each
 * step's failpoint (io.open.write, io.write, io.fsync, io.rename,
 * io.dirsync) fires before every attempt, so an injected error takes
 * the path a real one takes.
 */

#ifndef LP_IO_ATOMIC_FILE_HH
#define LP_IO_ATOMIC_FILE_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "util/bytes.hh"
#include "util/types.hh"

namespace lp
{

/** Bytes appendChecksumFooter() adds (footer magic + checksum). */
constexpr std::size_t checksumFooterBytes = 16;

/** Append the 16-byte integrity footer to @p payload. */
void appendChecksumFooter(Blob &payload);

/**
 * If @p data ends in a valid checksum footer, set @p payloadSize to
 * the payload length (footer stripped) and return true. False means
 * there is no (intact) footer: a torn write or corruption.
 */
bool checksummedPayload(const std::uint8_t *data, std::size_t size,
                        std::size_t *payloadSize);

class AtomicFileWriter
{
  public:
    /**
     * Start writing `<path>.tmp`. @p what names the file's role in
     * error messages ("library", "library-set index"). Throws IoError
     * when the temp file cannot be created.
     */
    AtomicFileWriter(std::string path, const char *what);

    /** Abandon an uncommitted write: close and unlink the temp. */
    ~AtomicFileWriter();

    AtomicFileWriter(const AtomicFileWriter &) = delete;
    AtomicFileWriter &operator=(const AtomicFileWriter &) = delete;

    /** Append bytes (transients retried; throws IoError on failure). */
    void write(const void *data, std::size_t size);

    /**
     * Flush + fsync the temp, rename it over the final path, and
     * fsync the directory. After commit() returns, the file at the
     * final path is durably the new content. Throws IoError (and
     * cleans up the temp) on any failure.
     */
    void commit();

    /** The temp name a final path stages through. */
    static std::string tempFileName(const std::string &path)
    {
        return path + ".tmp";
    }

    /** True when @p fileName looks like a staging temp. */
    static bool isTempFileName(const std::string &fileName);

  private:
    void discard() noexcept;

    std::string path_;
    std::string tmp_;
    const char *what_;
    std::FILE *f_ = nullptr;
    bool committed_ = false;
};

/** One-shot convenience: write @p size bytes atomically to @p path. */
void writeFileAtomic(const std::string &path, const std::uint8_t *data,
                     std::size_t size, const char *what);

/**
 * Fsync the directory containing @p path so a just-renamed entry is
 * durable. Best-effort on platforms without directory fsync.
 */
void syncParentDir(const std::string &path);

} // namespace lp

#endif // LP_IO_ATOMIC_FILE_HH
