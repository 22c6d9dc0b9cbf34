/**
 * @file
 * Deterministic fault injection. A failpoint is a named site in a
 * read/write path; a trigger armed on that site makes the nth (or
 * every kth) hit misbehave in a controlled way — return an injected
 * errno, simulate a short read/write, or kill the process outright —
 * so crash-safety and recovery paths are tested against real
 * mid-operation failures instead of being claimed.
 *
 * Arming is programmatic (armFailpoint / disarmAllFailpoints, the
 * test-suite path) or environmental: LP_FAILPOINTS holds a
 * ';'-separated list of specs, each
 *
 *     <site>=<trigger>:<n>:<action>
 *
 *     trigger  hit    fire on exactly the nth hit (1-based)
 *              every  fire on every nth hit
 *     action   crash         _exit(failpointCrashStatus) at the site
 *              short         simulate a short read/write (one chunk)
 *              hang          park the hitting thread at the site (a
 *                            stuck worker); the site waits
 *                            interruptibly, and disarming the site
 *                            releases it
 *              err[:CODE]    inject errno CODE (EIO, EINTR, EAGAIN,
 *                            ENOSPC, ENOENT, EACCES, ENOMEM, or a
 *                            number; default EIO)
 *
 * e.g. LP_FAILPOINTS="io.read=hit:2:err:EINTR;io.fsync=hit:1:crash".
 * A malformed spec panics at startup — a typo must never silently
 * disarm a fault sweep.
 *
 * Cost when disarmed: one relaxed atomic load and a predicted branch
 * per site hit (failpointsArmed() below); no site ever takes a lock
 * or touches the registry unless at least one failpoint is armed
 * process-wide. Sites sit on I/O boundaries (per file, per syscall
 * chunk, per record decode), never inside the replay or codec inner
 * loops.
 */

#ifndef LP_UTIL_FAILPOINT_HH
#define LP_UTIL_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace lp
{

/** Exit status of a process killed by a `crash` failpoint action. */
constexpr int failpointCrashStatus = 86;

/** What an armed trigger does when it fires. */
struct FailpointSpec
{
    enum class Trigger
    {
        nth,  //!< fire on exactly the nth hit
        every //!< fire on every nth hit
    };

    enum class Action
    {
        error,   //!< inject errno `err` (I/O sites) / throw (others)
        shortOp, //!< simulate a short read/write
        crash,   //!< _exit(failpointCrashStatus) at the site
        hang     //!< park the hitting thread (an injectable stall)
    };

    Trigger trigger = Trigger::nth;
    std::uint64_t n = 1; //!< which hit(s) fire; 1-based
    Action action = Action::error;
    int err = 5; //!< errno to inject for Action::error (default EIO)
};

/** The outcome a site acts on. Crashes never return. */
struct FailpointOutcome
{
    bool fail = false;    //!< inject an error with errno `err`
    bool shortOp = false; //!< perform a deliberately short operation
    bool hang = false;    //!< park: the site must wait interruptibly
    int err = 0;
};

namespace detail
{
extern std::atomic<int> failpointsArmedCount;
} // namespace detail

/**
 * Fast disarmed-path check every site makes first: true only when at
 * least one failpoint is armed anywhere in the process.
 */
inline bool
failpointsArmed()
{
    return detail::failpointsArmedCount.load(
               std::memory_order_relaxed) > 0;
}

/**
 * Slow path: record a hit on @p site and evaluate its trigger. Only
 * meaningful after failpointsArmed() returned true. A firing `crash`
 * action terminates the process here (stderr note, then
 * _exit(failpointCrashStatus) — no atexit flushing, like a real
 * kill). Thread-safe.
 */
FailpointOutcome failpointFire(const char *site);

/** Arm (or re-arm, resetting the hit count) @p site with @p spec. */
void armFailpoint(const std::string &site, const FailpointSpec &spec);

/** Disarm @p site (no-op when not armed). */
void disarmFailpoint(const std::string &site);

/** Disarm every site and clear all hit counts. */
void disarmAllFailpoints();

/** Hits recorded on @p site since it was (re-)armed. */
std::uint64_t failpointHits(const std::string &site);

/** True while @p site is armed. */
bool failpointArmed(const std::string &site);

/**
 * Parse and arm a ';'-separated LP_FAILPOINTS spec string. Throws
 * std::invalid_argument on malformed input. (The environment variable
 * itself is loaded automatically at startup and panics on a bad
 * spec.)
 */
void armFailpointsFromSpec(const std::string &spec);

/** True for errno values worth an automatic bounded retry. */
bool transientErrno(int err);

} // namespace lp

#endif // LP_UTIL_FAILPOINT_HH
