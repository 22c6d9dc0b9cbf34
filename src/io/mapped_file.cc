#include "io/mapped_file.hh"

#include <cerrno>

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/io_error.hh"
#include "io/source.hh"
#include "util/log.hh"
#include "util/retry.hh"

namespace lp
{

namespace
{

/** RAII fd so no throw path leaks the descriptor. */
struct FdGuard
{
    int fd;
    ~FdGuard()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

[[noreturn]] void
throwMapError(const std::string &path, std::size_t size, int err)
{
    throw IoError(strfmt("cannot map file '%s' (%zu bytes): %s",
                         path.c_str(), size, std::strerror(err)),
                  err);
}

} // namespace

MappedFile
MappedFile::map(const std::string &path)
{
    FdGuard g{openForRead(path, "io.mmap.open", "open for mapping", "file")};
    struct stat st;
    if (::fstat(g.fd, &st) != 0 || st.st_size < 0)
        throwIoError("stat", "file", path, errno);
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size == 0)
        return MappedFile(nullptr, 0);
    void *p = MAP_FAILED;
    int err = 0;
    if (!retrySyscall("io.mmap.map", &err, [&](bool) {
            p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, g.fd, 0);
            return p != MAP_FAILED;
        }))
        throwMapError(path, size, err);
    return MappedFile(static_cast<std::uint8_t *>(p), size);
}

void
MappedFile::unmap() noexcept
{
    if (data_)
        ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
}

void
MappedFile::adviseSequential() const
{
    if (data_)
        ::posix_madvise(data_, size_, POSIX_MADV_SEQUENTIAL);
}

MappedFile::~MappedFile()
{
    unmap();
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : data_(other.data_), size_(other.size_)
{
    other.data_ = nullptr;
    other.size_ = 0;
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        unmap();
        data_ = other.data_;
        size_ = other.size_;
        other.data_ = nullptr;
        other.size_ = 0;
    }
    return *this;
}

} // namespace lp
