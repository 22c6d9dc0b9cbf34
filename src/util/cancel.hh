/**
 * @file
 * Cooperative cancellation and deadlines. A CancelToken is the shared
 * switch between a running campaign and whoever controls it (the
 * service's cancel request, a signal handler, a test): requesting
 * cancellation is sticky, carries a reason, and is observed at block
 * barriers — the replay itself never tears mid-block, so a cancelled
 * job's manifest stays a valid resume point and a later resumption is
 * bit-identical to the uninterrupted run.
 *
 * ReplayControl bundles the token with a progress heartbeat (bumped
 * once per simulated point), which the service reports in status
 * replies.
 */

#ifndef LP_UTIL_CANCEL_HH
#define LP_UTIL_CANCEL_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace lp
{

/**
 * A sticky, thread-safe cancellation switch. The first
 * requestCancel() wins; its reason is what status reports show.
 */
class CancelToken
{
  public:
    /** Request cancellation (first reason wins; later calls no-op). */
    void requestCancel(const std::string &why)
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            if (flag_.load(std::memory_order_relaxed))
                return;
            reason_ = why;
        }
        flag_.store(true, std::memory_order_release);
    }

    /** True once cancellation was requested. One relaxed load. */
    bool cancelled() const
    {
        return flag_.load(std::memory_order_relaxed);
    }

    /** Why ("" when not cancelled). */
    std::string reason() const
    {
        if (!cancelled())
            return "";
        std::lock_guard<std::mutex> lk(m_);
        return reason_;
    }

    /** Re-arm a finished token for reuse (job resubmission). */
    void reset()
    {
        std::lock_guard<std::mutex> lk(m_);
        flag_.store(false, std::memory_order_relaxed);
        reason_.clear();
    }

  private:
    std::atomic<bool> flag_{false};
    mutable std::mutex m_;
    std::string reason_;
};

/**
 * A monotonic deadline: a point on the steady clock a job must not
 * run past. Default-constructed deadlines never expire.
 */
class Deadline
{
  public:
    using Clock = std::chrono::steady_clock;

    Deadline() : tp_(Clock::time_point::max()) {}

    static Deadline never() { return Deadline(); }

    static Deadline in(std::chrono::milliseconds budget)
    {
        Deadline d;
        d.tp_ = Clock::now() + budget;
        return d;
    }

    /** Convenience: a deadline @p ms from now; ms == 0 never expires. */
    static Deadline inMs(std::uint64_t ms)
    {
        return ms ? in(std::chrono::milliseconds(ms)) : never();
    }

    bool unlimited() const
    {
        return tp_ == Clock::time_point::max();
    }

    bool expired() const
    {
        return !unlimited() && Clock::now() >= tp_;
    }

  private:
    Clock::time_point tp_;
};

/**
 * The shared control block between a running replay/campaign and its
 * owner. All members are safe to poke from any thread while the run
 * is live.
 */
struct ReplayControl
{
    /** Graceful stop: observed at fold-block barriers. */
    CancelToken cancel;

    /** Heartbeat: incremented once per simulated point. */
    std::atomic<std::uint64_t> progress{0};
};

} // namespace lp

#endif // LP_UTIL_CANCEL_HH
