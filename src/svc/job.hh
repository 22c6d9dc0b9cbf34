/**
 * @file
 * Job lifecycle vocabulary for the campaign service. A job moves
 *
 *     queued -> running -> done | failed | cancelled
 *                  \-> draining -> cancelled      (cancel requested)
 *
 * `draining` is a running job whose cancellation has been requested
 * but which has not yet reached the block barrier where it stops; it
 * is reported, never persisted (a draining job on disk is just
 * `running`). Terminal states are durable: the state token is the
 * last thing written to the job directory, so a restarted daemon
 * trusts it. A `cancelled` (or `failed`) job keeps its manifest and
 * can be re-enqueued with resume — the campaign manifest makes the
 * continuation bit-identical to an uninterrupted run.
 */

#ifndef LP_SVC_JOB_HH
#define LP_SVC_JOB_HH

#include <string>

namespace lp
{

enum class JobState
{
    queued,   //!< accepted, waiting for worker slots
    running,  //!< campaign in progress
    draining, //!< running, cancellation requested (reported only)
    done,     //!< campaign finished; result.json written
    failed,   //!< the job itself failed (not merely some cells)
    cancelled //!< stopped at a barrier by cancel/deadline; resumable
};

/** Stable on-disk / on-wire token for @p s (e.g. "running"). */
const char *jobStateToken(JobState s);

/** Inverse of jobStateToken(); false when @p token is unknown. */
bool jobStateFromToken(const std::string &token, JobState *out);

/** True for states a job never leaves without a resume request. */
inline bool
jobStateTerminal(JobState s)
{
    return s == JobState::done || s == JobState::failed ||
           s == JobState::cancelled;
}

} // namespace lp

#endif // LP_SVC_JOB_HH
