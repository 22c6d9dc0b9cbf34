/**
 * @file
 * The io layer's exception type. Every throw in a read/write path
 * carries the failing path, the role of the file ("library",
 * "campaign manifest", ...), and the errno context formatted through
 * strerror — so a fault-injection test (or an operator's log) sees
 * *which* file failed and *why*, not a bare "short read".
 *
 * transient() distinguishes errors worth a bounded retry (EINTR,
 * EAGAIN) from hard failures. Every system call retries its own
 * transients (retrySyscall, util/retry.hh), so an IoError that
 * reaches a caller is final: no layer above retries it again.
 */

#ifndef LP_IO_IO_ERROR_HH
#define LP_IO_IO_ERROR_HH

#include <cstring>
#include <stdexcept>
#include <string>

#include "util/failpoint.hh"
#include "util/log.hh"

namespace lp
{

class IoError : public std::runtime_error
{
  public:
    IoError(const std::string &msg, int err)
        : std::runtime_error(msg), err_(err)
    {
    }

    /** The errno at the failure site (0 when not errno-driven). */
    int errnum() const { return err_; }

    /** True when a bounded retry could plausibly succeed. */
    bool transient() const { return transientErrno(err_); }

  private:
    int err_;
};

/**
 * "cannot <verb> <what> '<path>': <strerror>" — the standard io-layer
 * failure message. @p err == 0 omits the strerror suffix.
 */
inline std::string
ioErrorMsg(const char *verb, const char *what, const std::string &path,
           int err)
{
    if (err == 0)
        return strfmt("cannot %s %s '%s'", verb, what, path.c_str());
    return strfmt("cannot %s %s '%s': %s", verb, what, path.c_str(),
                  std::strerror(err));
}

/** Throw an IoError built by ioErrorMsg(). */
[[noreturn]] inline void
throwIoError(const char *verb, const char *what,
             const std::string &path, int err)
{
    throw IoError(ioErrorMsg(verb, what, path, err), err);
}

} // namespace lp

#endif // LP_IO_IO_ERROR_HH
