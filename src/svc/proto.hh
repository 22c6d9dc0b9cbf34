/**
 * @file
 * The campaign service wire protocol. Requests and replies travel
 * over a Unix domain socket as length-prefixed checksummed frames:
 *
 *     bytes 0..7    magic "LPSVC1\n\0" (little-endian u64)
 *     bytes 8..11   message type (MsgType, little-endian u32)
 *     bytes 12..15  status (MsgStatus; 0 in requests)
 *     bytes 16..23  payload length
 *     bytes 24..31  fnv1a checksum of the payload
 *     bytes 32..    payload (DER, see below)
 *
 * The checksum makes a torn or corrupted frame detectable instead of
 * silently mis-parsed: a reader that sees a bad magic or checksum
 * fails the connection, never guesses. Socket reads and writes go
 * through retrySyscall (util/retry.hh), the helper every file system
 * call uses: it retries transient errnos with bounded backoff and
 * jitter, and fires the `svc.read` / `svc.write` failpoints before
 * each attempt so fault sweeps can exercise the paths.
 *
 * Payloads are DER (codec/der.hh), one message shape per type — see
 * the encode/decode helpers below. A JobSpec is the self-contained
 * description of a campaign job: which shards of the daemon's fleet
 * set to replay, how to regenerate each shard's program (profiles are
 * deterministic functions of their numeric parameters), the
 * configuration grid, and the run/stop/deadline options. The daemon
 * keeps the encoded spec in the job's record (svc/job.hh), so a
 * restarted daemon can rebuild and resume every in-flight job from
 * disk alone.
 */

#ifndef LP_SVC_PROTO_HH
#define LP_SVC_PROTO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace lp
{

/** Frame magic: "LPSVC1\n\0" little-endian. */
constexpr std::uint64_t kSvcMagic = 0x000a'3143'5653'504cull;

enum class MsgType : std::uint32_t
{
    submit = 1, //!< req: JobSpec; ok: {id}; retry: {error, retryAfterMs}
    status = 2, //!< req: {id}; ok: {id, state, progress, detail}
    result = 3, //!< req: {id}; ok: {state, resultJson}
    cancel = 4, //!< req: {id, reason}; ok: {found}
    drain = 5,  //!< req: {}; ok after the daemon stops accepting
    resume = 6, //!< req: {id}; ok: {id} — re-enqueue a stopped job

    /**
     * Cross-campaign result-store query, answered with zero
     * simulation. req: {workload ("" = any), configDigest (0 = any)};
     * ok: {json} — see CampaignService::queryResults.
     */
    query = 7
};

enum class MsgStatus : std::uint32_t
{
    ok = 0,
    error = 1,     //!< payload: {message}
    retryLater = 2 //!< payload: {message, retryAfterMs}
};

struct Frame
{
    MsgType type = MsgType::status;
    MsgStatus status = MsgStatus::ok;
    Blob payload;
};

/** Write one frame to @p fd (blocking, transient-retried). */
void sendFrame(int fd, MsgType type, MsgStatus status,
               const Blob &payload);

/**
 * Read one frame from @p fd. Returns false on clean EOF at a frame
 * boundary; throws IoError on I/O failure or a corrupt frame.
 */
bool recvFrame(int fd, Frame &out);

/** One workload row of a job: a shard plus its program recipe. */
struct JobWorkloadSpec
{
    std::string shard; //!< shard name in the daemon's LibrarySet

    /**
     * Suite profile name (workload/profile.hh), or "" for the tiny
     * synthetic profile parameterized below. Programs are
     * deterministic functions of the profile, so the daemon
     * regenerates exactly the program the library was built from.
     */
    std::string profile;
    std::uint64_t tinyInsts = 0; //!< tinyProfile target instructions
    std::uint64_t tinySeed = 0;  //!< tinyProfile seed
};

/** One configuration column: a preset plus sweep overrides. */
struct JobConfigSpec
{
    std::string preset; //!< "eight" | "sixteen"
    std::string name;   //!< display name ("" = preset default)
    std::uint64_t memLatency = 0;  //!< cycles; 0 = preset default
    std::uint64_t l2Latency = 0;   //!< cycles; 0 = preset default
    std::uint64_t l2SizeBytes = 0; //!< 0 = preset default
};

/** A complete campaign job description (the submit payload). */
struct JobSpec
{
    std::string name; //!< human label for logs and status

    std::vector<JobWorkloadSpec> workloads;
    std::vector<JobConfigSpec> configs;

    double level = 0.997;        //!< confidence level
    double relativeError = 0.03; //!< confidence half-width target
    bool stopAtConfidence = true;
    bool approxWrongPath = false;
    std::uint64_t shuffleSeed = 0;
    std::uint32_t threads = 1;       //!< simulation workers
    std::uint32_t decodeThreads = 0; //!< 0 = auto
    std::uint64_t blockSize = 0;     //!< 0 = default fold block
    std::uint64_t maxFoldedReplays = 0;

    /** Wall-clock budget from job start, ms; 0 = unlimited. */
    std::uint64_t deadlineMs = 0;
};

/**
 * The {id} payload: status, result and resume requests, and the ok
 * reply to submit and resume.
 */
Blob encodeId(std::uint64_t id);

Blob encodeJobSpec(const JobSpec &spec);

/**
 * Decode a submit payload. Throws on any malformed input, including
 * data left over after the spec or inside any of its rows: a payload
 * must be exactly one spec in this layout.
 */
JobSpec decodeJobSpec(const Blob &payload);

} // namespace lp

#endif // LP_SVC_PROTO_HH
