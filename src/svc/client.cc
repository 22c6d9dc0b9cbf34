#include "svc/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "codec/der.hh"
#include "io/io_error.hh"
#include "util/log.hh"

namespace lp
{

SvcClient::SvcClient(const std::string &socketPath,
                     std::uint64_t connectTimeoutMs)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path))
        throw std::runtime_error(
            strfmt("socket path too long: '%s'", socketPath.c_str()));
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(connectTimeoutMs);
    for (;;) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            throwIoError("create", "service socket", socketPath,
                         errno);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return;
        const int err = errno;
        ::close(fd_);
        fd_ = -1;
        // A daemon that has not bound yet shows as ENOENT or
        // ECONNREFUSED; anything else (or a lapsed budget) is final.
        const bool startupRace =
            err == ENOENT || err == ECONNREFUSED || err == EINTR;
        if (!startupRace ||
            std::chrono::steady_clock::now() >= deadline)
            throwIoError("connect", "service socket", socketPath, err);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

SvcClient::~SvcClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

SvcReply
SvcClient::roundTrip(MsgType type, const Blob &payload)
{
    sendFrame(fd_, type, MsgStatus::ok, payload);
    Frame reply;
    if (!recvFrame(fd_, reply))
        throw IoError("service socket: daemon closed mid-request", 0);
    SvcReply out;
    if (reply.status == MsgStatus::error) {
        DerReader r(reply.payload);
        DerReader s = r.getSequence();
        out.detail = s.getString();
        return out;
    }
    if (reply.status == MsgStatus::retryLater) {
        DerReader r(reply.payload);
        DerReader s = r.getSequence();
        out.retry = true;
        out.detail = s.getString();
        out.retryAfterMs = s.getUint();
        return out;
    }
    out.ok = true;
    switch (reply.type) {
    case MsgType::submit:
    case MsgType::resume: {
        DerReader r(reply.payload);
        DerReader s = r.getSequence();
        out.id = s.getUint();
        break;
    }
    case MsgType::status: {
        DerReader r(reply.payload);
        DerReader s = r.getSequence();
        out.id = s.getUint();
        out.state = s.getString();
        out.progress = s.getUint();
        out.detail = s.getString();
        break;
    }
    case MsgType::result: {
        DerReader r(reply.payload);
        DerReader s = r.getSequence();
        out.state = s.getString();
        out.resultJson = s.getString();
        break;
    }
    case MsgType::query: {
        DerReader r(reply.payload);
        DerReader s = r.getSequence();
        out.resultJson = s.getString();
        break;
    }
    case MsgType::cancel: {
        DerReader r(reply.payload);
        DerReader s = r.getSequence();
        out.ok = s.getUint() != 0;
        break;
    }
    case MsgType::drain:
        break;
    }
    return out;
}

SvcReply
SvcClient::submit(const JobSpec &spec)
{
    return roundTrip(MsgType::submit, encodeJobSpec(spec));
}

SvcReply
SvcClient::submitWithRetry(const JobSpec &spec,
                           const RetryPolicy &policy)
{
    // The system-call retry's backoff and jitter stream, but the
    // "transient" signal is the daemon's retry-later reply and the
    // daemon's own retryAfterMs hint is the delay floor.
    Rng rng(policy.seed, "lp-retry-jitter");
    SvcReply rep = submit(spec);
    for (int used = 0; rep.retry && used < policy.attempts; ++used) {
        const std::uint64_t delayUs =
            std::max(retryBackoffUs(policy, used, rng),
                     rep.retryAfterMs * 1000);
        std::this_thread::sleep_for(std::chrono::microseconds(delayUs));
        rep = submit(spec);
    }
    return rep;
}

SvcReply
SvcClient::query(const std::string &workload,
                 std::uint64_t configDigest)
{
    DerWriter w;
    w.beginSequence();
    w.putString(workload);
    w.putUint(configDigest);
    w.endSequence();
    return roundTrip(MsgType::query, w.finish());
}

SvcReply
SvcClient::status(std::uint64_t id)
{
    return roundTrip(MsgType::status, encodeId(id));
}

SvcReply
SvcClient::result(std::uint64_t id)
{
    return roundTrip(MsgType::result, encodeId(id));
}

SvcReply
SvcClient::cancel(std::uint64_t id, const std::string &reason)
{
    DerWriter w;
    w.beginSequence();
    w.putUint(id);
    w.putString(reason);
    w.endSequence();
    return roundTrip(MsgType::cancel, w.finish());
}

SvcReply
SvcClient::resume(std::uint64_t id)
{
    return roundTrip(MsgType::resume, encodeId(id));
}

SvcReply
SvcClient::drain()
{
    return roundTrip(MsgType::drain, Blob());
}

SvcReply
SvcClient::waitForJob(std::uint64_t id, std::uint64_t timeoutMs,
                      std::uint64_t pollMs)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    for (;;) {
        SvcReply st = status(id);
        if (!st.ok)
            return st;
        JobState s;
        if (jobStateFromToken(st.state, &s) && jobStateTerminal(s))
            return st;
        if (timeoutMs &&
            std::chrono::steady_clock::now() >= deadline) {
            st.ok = false;
            st.detail = "timed out waiting for job";
            return st;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
    }
}

} // namespace lp
