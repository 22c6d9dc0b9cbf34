#include "svc/job.hh"

#include <stdexcept>

#include "codec/der.hh"
#include "io/atomic_file.hh"
#include "io/io_error.hh"

namespace lp
{

namespace
{

constexpr std::uint64_t kRecordMagic = 0x4c50'4a4f'4231ull; // "LPJOB1"
constexpr std::uint64_t kRecordVersion = 1;

} // namespace

const char *
jobStateToken(JobState s)
{
    switch (s) {
    case JobState::queued:
        return "queued";
    case JobState::running:
        return "running";
    case JobState::draining:
        return "draining";
    case JobState::done:
        return "done";
    case JobState::failed:
        return "failed";
    case JobState::cancelled:
        return "cancelled";
    }
    return "unknown";
}

bool
jobStateFromToken(const std::string &token, JobState *out)
{
    static const JobState all[] = {
        JobState::queued, JobState::running,   JobState::draining,
        JobState::done,   JobState::failed,    JobState::cancelled};
    for (JobState s : all) {
        if (token == jobStateToken(s)) {
            *out = s;
            return true;
        }
    }
    return false;
}

Blob
encodeJobRecord(const JobRecord &r)
{
    DerWriter w;
    w.beginSequence();
    w.putUint(kRecordMagic);
    w.putUint(kRecordVersion);
    w.putBytes(encodeJobSpec(r.spec));
    w.putString(jobStateToken(r.state));
    w.putString(r.detail);
    w.putString(r.report);
    w.endSequence();
    Blob image = w.finish();
    appendChecksumFooter(image);
    return image;
}

JobRecord
decodeJobRecord(const Blob &image, const std::string &path)
{
    auto bad = [&path](const std::string &why) {
        return IoError(
            ioErrorMsg("parse", "job record", path, 0) + ": " + why, 0);
    };
    std::size_t payloadSize = 0;
    if (!checksummedPayload(image.data(), image.size(), &payloadSize))
        throw bad("truncated or missing checksum footer");
    JobRecord r;
    try {
        DerReader top(ByteSpan(image.data(), payloadSize));
        DerReader s = top.getSequence();
        if (s.getUint() != kRecordMagic || s.getUint() != kRecordVersion)
            throw bad("bad magic or version");
        r.spec = decodeJobSpec(s.getBytes());
        const std::string token = s.getString();
        if (!jobStateFromToken(token, &r.state) ||
            r.state == JobState::draining)
            throw bad("unknown state '" + token + "'");
        r.detail = s.getString();
        r.report = s.getString();
        if (!s.atEnd() || !top.atEnd())
            throw bad("data left over");
    } catch (const IoError &) {
        throw;
    } catch (const std::exception &e) {
        throw bad(e.what());
    }
    return r;
}

} // namespace lp
