#include "io/source.hh"

#include <cerrno>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/io_error.hh"
#include "util/failpoint.hh"
#include "util/log.hh"
#include "util/retry.hh"

namespace lp
{

int
openForRead(const std::string &path, const char *site, const char *verb,
            const char *what)
{
    TransientRetry retry;
    for (;;) {
        // An injected open failure takes the retry path a real one
        // takes.
        if (failpointsArmed()) {
            const FailpointOutcome o = failpointFire(site);
            if (o.fail) {
                if (retry.shouldRetry(o.err))
                    continue;
                throwIoError(verb, what, path, o.err);
            }
        }
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0)
            return fd;
        const int err = errno;
        if (!retry.shouldRetry(err))
            throwIoError(verb, what, path, err);
    }
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
    TransientRetry retry;
    while (got < data.size()) {
        std::size_t want = data.size() - got;
        if (failpointsArmed()) {
            const FailpointOutcome o = failpointFire("io.read");
            if (o.fail) {
                if (retry.shouldRetry(o.err))
                    continue;
                ::close(fd);
                throwIoError("read", what, path, o.err);
            }
            // A short read: deliver only part of the request once;
            // the loop reads the remainder — which is exactly the
            // resilience the retry loop exists to prove.
            if (o.shortOp && want > 1)
                want /= 2;
        }
        const ::ssize_t n = ::read(fd, data.data() + got, want);
        if (n < 0) {
            const int err = errno;
            if (retry.shouldRetry(err))
                continue;
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
