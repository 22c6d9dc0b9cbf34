/**
 * @file
 * Job lifecycle vocabulary for the campaign service, and the job
 * record that keeps one job on disk. A job moves
 *
 *     queued -> running -> done | failed | cancelled
 *                  \-> draining -> cancelled      (cancel requested)
 *
 * `draining` is a running job whose cancellation has been requested
 * but which has not yet reached the block barrier where it stops; it
 * is reported, never stored (a draining job on disk is just
 * `running`). A `cancelled` (or `failed`) job keeps its manifest and
 * can be re-enqueued with resume — the campaign manifest makes the
 * continuation bit-identical to an uninterrupted run.
 *
 * The record (`<jobsDir>/job-<id>/job.lpjob`) is everything the
 * service keeps durable about a job besides its campaign manifest:
 * the spec, the state, the detail and the report. It is one DER
 * sequence sealed with the 16-byte checksum footer (the framing of
 * the set index, the manifest and the result store), replaced whole
 * at every state change:
 *
 *     SEQUENCE { magic "LPJOB1", version 1,
 *                OCTET STRING  encodeJobSpec() bytes,
 *                UTF8String    state token (never `draining`),
 *                UTF8String    detail,
 *                UTF8String    report }
 */

#ifndef LP_SVC_JOB_HH
#define LP_SVC_JOB_HH

#include <string>

#include "svc/proto.hh"
#include "util/types.hh"

namespace lp
{

enum class JobState
{
    queued,   //!< accepted, waiting for worker slots
    running,  //!< campaign in progress
    draining, //!< running, cancellation requested (reported only)
    done,     //!< campaign finished; the record holds the report
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

/** What a job record holds. */
struct JobRecord
{
    JobSpec spec;
    JobState state = JobState::queued;
    std::string detail; //!< failure or cancellation reason ("" if none)
    std::string report; //!< campaign JSON report (done jobs)
};

/** The sealed image of @p r (whose state is never `draining`). */
Blob encodeJobRecord(const JobRecord &r);

/**
 * Decode the image of the record at @p path. Throws IoError naming
 * @p path on a bad footer, magic or version, a spec decodeJobSpec()
 * rejects, a state other than queued, running, done, failed or
 * cancelled, or a value left over anywhere.
 */
JobRecord decodeJobRecord(const Blob &image, const std::string &path);

} // namespace lp

#endif // LP_SVC_JOB_HH
