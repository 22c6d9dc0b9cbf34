/**
 * @file
 * The one place transient-error retry policy lives. Every I/O path
 * that used to hand-roll an EINTR/EAGAIN loop (file reads, atomic
 * writes, socket frames) counts its attempts through TransientRetry
 * instead: bounded attempts, exponential backoff for EAGAIN-class
 * stalls, and deterministic jitter (lp::Rng, stream-named) so two
 * retrying workers never thundering-herd in lockstep — and so a
 * fault-injection sweep replays the exact same retry schedule every
 * run.
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

class TransientRetry
{
  public:
    explicit TransientRetry(const RetryPolicy &policy = {})
        : p_(policy), rng_(policy.seed, "lp-retry-jitter")
    {
    }

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

} // namespace lp

#endif // LP_UTIL_RETRY_HH
