#include "io/atomic_file.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "io/io_error.hh"
#include "util/retry.hh"

namespace lp
{

namespace
{

// "LPFOOT1\n" little-endian: identifies the 16-byte integrity footer.
constexpr std::uint64_t kFooterMagic = 0x0a31'544f'4f46'504cull;

} // namespace

void
appendChecksumFooter(Blob &payload)
{
    std::uint8_t footer[checksumFooterBytes];
    putU64le(footer, kFooterMagic);
    putU64le(footer + 8, fnv1a(payload.data(), payload.size()));
    payload.insert(payload.end(), footer,
                   footer + checksumFooterBytes);
}

bool
checksummedPayload(const std::uint8_t *data, std::size_t size,
                   std::size_t *payloadSize)
{
    if (size < checksumFooterBytes)
        return false;
    const std::size_t n = size - checksumFooterBytes;
    if (getU64le(data + n) != kFooterMagic)
        return false;
    if (getU64le(data + n + 8) != fnv1a(data, n))
        return false;
    *payloadSize = n;
    return true;
}

AtomicFileWriter::AtomicFileWriter(std::string path, const char *what)
    : path_(std::move(path)), tmp_(tempFileName(path_)), what_(what)
{
    int err = 0;
    if (!retrySyscall("io.open.write", &err, [&](bool) {
            return (f_ = std::fopen(tmp_.c_str(), "wb")) != nullptr;
        }))
        throwIoError("create temp for", what_, tmp_, err);
}

AtomicFileWriter::~AtomicFileWriter()
{
    if (!committed_)
        discard();
}

void
AtomicFileWriter::discard() noexcept
{
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
    std::remove(tmp_.c_str());
}

bool
AtomicFileWriter::isTempFileName(const std::string &fileName)
{
    const char *suffix = ".tmp";
    const std::size_t n = std::strlen(suffix);
    return fileName.size() > n &&
           fileName.compare(fileName.size() - n, n, suffix) == 0;
}

void
AtomicFileWriter::write(const void *data, std::size_t size)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    while (size > 0) {
        int err = 0;
        // A short write keeps the bytes it wrote; the next attempt
        // (or the next turn of this loop) writes the rest.
        if (!retrySyscall("io.write", &err, [&](bool shortOp) {
                const std::size_t want =
                    shortOp && size > 1 ? size / 2 : size;
                const std::size_t n = std::fwrite(p, 1, want, f_);
                p += n;
                size -= n;
                if (n == want)
                    return true;
                std::clearerr(f_); // leaves errno as it is
                return false;
            })) {
            discard();
            throwIoError("write", what_, tmp_, err ? err : EIO);
        }
    }
}

void
AtomicFileWriter::commit()
{
    int err = 0;
    if (std::fflush(f_) != 0) {
        err = errno;
        discard();
        throwIoError("flush", what_, tmp_, err);
    }
    if (!retrySyscall("io.fsync", &err, [&](bool) {
            return ::fsync(::fileno(f_)) == 0;
        })) {
        discard();
        throwIoError("sync", what_, tmp_, err);
    }
    if (std::fclose(std::exchange(f_, nullptr)) != 0) {
        err = errno;
        discard();
        throwIoError("close", what_, tmp_, err);
    }
    if (!retrySyscall("io.rename", &err, [&](bool) {
            return std::rename(tmp_.c_str(), path_.c_str()) == 0;
        })) {
        discard();
        throwIoError("publish", what_, path_, err);
    }
    committed_ = true;
    // The rename is visible; make it durable. A failure here is
    // reported (the caller's durability contract is broken) but the
    // temp is gone — the file at path_ is complete either way.
    syncParentDir(path_);
}

void
syncParentDir(const std::string &path)
{
    std::string dir = path;
    const std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0)
        return; // best-effort: an unreadable parent is not an error
    int err = 0;
    const bool synced = retrySyscall(
        "io.dirsync", &err, [&](bool) { return ::fsync(fd) == 0; });
    ::close(fd);
    if (!synced)
        throwIoError("sync directory of", "file", path, err);
}

void
writeFileAtomic(const std::string &path, const std::uint8_t *data,
                std::size_t size, const char *what)
{
    AtomicFileWriter w(path, what);
    w.write(data, size);
    w.commit();
}

} // namespace lp
