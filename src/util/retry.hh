/**
 * @file
 * The one place transient-error retry policy lives. Every file and
 * socket system call (open, read, write, fsync, rename, mmap) goes
 * through retrySyscall(): it fires the call's failpoint before each
 * attempt and retries a transient errno, injected or real, through
 * TransientRetry: bounded attempts, exponential backoff for
 * EAGAIN-class stalls, and deterministic jitter (lp::Rng,
 * stream-named) so two retrying workers never thundering-herd in
 * lockstep, and so a fault-injection sweep replays the exact same
 * retry schedule every run.
 *
 * EINTR is retried immediately (the syscall was interrupted, not
 * congested); EAGAIN/EWOULDBLOCK sleeps the backoff. Both draw from
 * one attempt budget, so an `every:1:err:EINTR` injection terminates
 * with a clean hard failure instead of spinning forever.
 */

#ifndef LP_UTIL_RETRY_HH
#define LP_UTIL_RETRY_HH

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/failpoint.hh"
#include "util/rng.hh"

namespace lp
{

struct RetryPolicy
{
    /** Attempt budget: how many failures may be retried. */
    int attempts = 64;

    /** First EAGAIN backoff; doubles per backoff up to maxDelayUs.
     *  EINTR never sleeps. 0 disables sleeping entirely. */
    unsigned baseDelayUs = 200;

    /** Backoff ceiling. */
    unsigned maxDelayUs = 50'000;

    /** Jitter stream seed (deterministic; see lp::Rng). */
    std::uint64_t seed = 0;
};

/**
 * The backoff before retry number @p retry (0-based) under @p p:
 * baseDelayUs doubled per retry up to maxDelayUs, with +-25%
 * deterministic jitter drawn from @p rng. Every retry loop — errno
 * transients here, the service client's retry-later replies — sleeps
 * this delay.
 */
inline std::uint64_t
retryBackoffUs(const RetryPolicy &p, int retry, Rng &rng)
{
    std::uint64_t delay = p.baseDelayUs;
    for (int i = 0; i < retry && delay < p.maxDelayUs; ++i)
        delay *= 2;
    if (delay > p.maxDelayUs)
        delay = p.maxDelayUs;
    // +-25% jitter, never rounding a nonzero delay to zero.
    const std::uint64_t half = delay / 2;
    return delay - delay / 4 + rng.nextBounded(half ? half : 1);
}

/** The attempt budget and backoff of one retrySyscall() call. */
class TransientRetry
{
  public:
    TransientRetry() : rng_(p_.seed, "lp-retry-jitter") {}

    /**
     * Decide whether the caller should retry after failing with
     * @p err. True only for transient errnos with budget remaining;
     * sleeps the (jittered, exponential) backoff before returning
     * when the errno warrants one. On false the caller fails hard.
     */
    bool shouldRetry(int err)
    {
        if (!transientErrno(err) || used_ >= p_.attempts)
            return false;
        ++used_;
        if (err != EINTR && p_.baseDelayUs > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(
                retryBackoffUs(p_, used_ - 1, rng_)));
        return true;
    }

  private:
    RetryPolicy p_;
    int used_ = 0;
    Rng rng_;
};

/**
 * Make one system call under the retry policy. Each attempt fires
 * failpoint @p site and then runs @p call, which makes the call and
 * returns true on success or false with errno set; an injected error
 * skips the call. A transient errno, injected or real, is retried
 * through one TransientRetry. A hard errno, or a transient one past
 * the budget, is stored in @p err and false is returned, so the
 * caller runs its own cleanup and throws its own IoError. @p call
 * takes `shortOp`: an armed `short` action asks a read or write to
 * move only part of its bytes on this attempt.
 */
template <class Call>
bool
retrySyscall(const char *site, int *err, Call &&call)
{
    TransientRetry retry;
    for (;;) {
        FailpointOutcome o;
        if (failpointsArmed())
            o = failpointFire(site);
        if (!o.fail && call(o.shortOp))
            return true;
        const int e = o.fail ? o.err : errno;
        if (!retry.shouldRetry(e)) {
            *err = e;
            return false;
        }
    }
}

} // namespace lp

#endif // LP_UTIL_RETRY_HH
