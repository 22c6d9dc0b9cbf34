#include "io/source.hh"

#include <cerrno>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/io_error.hh"
#include "util/log.hh"
#include "util/retry.hh"

namespace lp
{

int
openForRead(const std::string &path, const char *site, const char *verb,
            const char *what)
{
    int fd = -1;
    int err = 0;
    if (!retrySyscall(site, &err, [&](bool) {
            return (fd = ::open(path.c_str(), O_RDONLY)) >= 0;
        }))
        throwIoError(verb, what, path, err);
    return fd;
}

Blob
readWholeFile(const std::string &path, const char *what)
{
    const int fd = openForRead(path, "io.open.read", "open", what);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        const int err = errno;
        ::close(fd);
        throwIoError("stat", what, path, err);
    }
    Blob data(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < data.size()) {
        ::ssize_t n = 0;
        int err = 0;
        // A short read delivers only part of the request once; the
        // loop reads the remainder.
        if (!retrySyscall("io.read", &err, [&](bool shortOp) {
                const std::size_t want = data.size() - got;
                n = ::read(fd, data.data() + got,
                           shortOp && want > 1 ? want / 2 : want);
                return n >= 0;
            })) {
            ::close(fd);
            throwIoError("read", what, path, err);
        }
        if (n == 0) {
            // EOF before the stat size: the file shrank under us.
            ::close(fd);
            throw IoError(
                strfmt("unexpected end of %s '%s': got %zu of %zu "
                       "bytes",
                       what, path.c_str(), got, data.size()),
                0);
        }
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return data;
}

} // namespace lp
