#include "svc/daemon.hh"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "codec/der.hh"
#include "io/io_error.hh"
#include "util/log.hh"
#include "util/retry.hh"

namespace lp
{

namespace
{

Blob
encodeError(const std::string &msg)
{
    DerWriter w;
    w.beginSequence();
    w.putString(msg);
    w.endSequence();
    return w.finish();
}

Blob
encodeRetry(const std::string &msg, std::uint64_t retryAfterMs)
{
    DerWriter w;
    w.beginSequence();
    w.putString(msg);
    w.putUint(retryAfterMs);
    w.endSequence();
    return w.finish();
}

/**
 * Throw unless a request was read whole: @p s, the payload's one
 * sequence, and @p top, the payload itself. The throw is answered
 * with an error reply, and the connection stays open.
 */
void
expectRequestEnd(const DerReader &top, const DerReader &s)
{
    if (!s.atEnd() || !top.atEnd())
        throw std::runtime_error("malformed request: data left over");
}

} // namespace

SvcDaemon::SvcDaemon(const ServiceConfig &cfg, std::string socketPath)
    : svc_(cfg), path_(std::move(socketPath))
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path))
        throw std::runtime_error(
            strfmt("socket path too long: '%s'", path_.c_str()));
    std::strncpy(addr.sun_path, path_.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throwIoError("create", "service socket", path_, errno);
    ::unlink(path_.c_str()); // a stale socket from a killed daemon
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listenFd_, 8) < 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        throwIoError("bind", "service socket", path_, err);
    }
}

SvcDaemon::~SvcDaemon()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    ::unlink(path_.c_str());
}

void
SvcDaemon::run()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        pollfd p{listenFd_, POLLIN, 0};
        const int r = ::poll(&p, 1, 200);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throwIoError("poll", "service socket", path_, errno);
        }
        if (r == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (transientErrno(errno) || errno == ECONNABORTED)
                continue;
            throwIoError("accept", "service socket", path_, errno);
        }
        serveConnection(fd);
    }
}

void
SvcDaemon::serveConnection(int fd)
{
    try {
        Frame req;
        while (recvFrame(fd, req)) {
            if (!handleFrame(fd, req)) {
                // drain completed: close out and stop accepting
                stop_.store(true, std::memory_order_relaxed);
                break;
            }
        }
    } catch (const std::exception &e) {
        warn("service connection failed: %s", e.what());
    }
    ::close(fd);
}

bool
SvcDaemon::handleFrame(int fd, const Frame &req)
{
    try {
        switch (req.type) {
        case MsgType::submit: {
            const JobSpec spec = decodeJobSpec(req.payload);
            const SubmitOutcome out = svc_.submit(spec);
            if (out.accepted)
                sendFrame(fd, MsgType::submit, MsgStatus::ok,
                          encodeId(out.id));
            else if (out.retry)
                sendFrame(fd, MsgType::submit, MsgStatus::retryLater,
                          encodeRetry(out.error, out.retryAfterMs));
            else
                sendFrame(fd, MsgType::submit, MsgStatus::error,
                          encodeError(out.error));
            return true;
        }
        case MsgType::status: {
            DerReader r(req.payload);
            DerReader s = r.getSequence();
            const std::uint64_t id = s.getUint();
            expectRequestEnd(r, s);
            const JobStatusInfo info = svc_.status(id);
            if (!info.found) {
                sendFrame(fd, MsgType::status, MsgStatus::error,
                          encodeError("no such job"));
                return true;
            }
            DerWriter w;
            w.beginSequence();
            w.putUint(id);
            w.putString(jobStateToken(info.state));
            w.putUint(info.progress);
            w.putString(info.detail);
            w.endSequence();
            sendFrame(fd, MsgType::status, MsgStatus::ok, w.finish());
            return true;
        }
        case MsgType::result: {
            DerReader r(req.payload);
            DerReader s = r.getSequence();
            const std::uint64_t id = s.getUint();
            expectRequestEnd(r, s);
            JobState state;
            std::string json;
            if (!svc_.result(id, &state, &json)) {
                sendFrame(fd, MsgType::result, MsgStatus::error,
                          encodeError("job unknown or not terminal"));
                return true;
            }
            DerWriter w;
            w.beginSequence();
            w.putString(jobStateToken(state));
            w.putString(json);
            w.endSequence();
            sendFrame(fd, MsgType::result, MsgStatus::ok, w.finish());
            return true;
        }
        case MsgType::cancel: {
            DerReader r(req.payload);
            DerReader s = r.getSequence();
            const std::uint64_t id = s.getUint();
            const std::string reason = s.getString();
            expectRequestEnd(r, s);
            bool found = false;
            try {
                found = svc_.cancel(id, reason);
            } catch (const IoError &e) {
                // The job's record could not be written, and the job
                // is as it was; the connection is fine.
                sendFrame(fd, MsgType::cancel, MsgStatus::error,
                          encodeError(e.what()));
                return true;
            }
            DerWriter w;
            w.beginSequence();
            w.putUint(found ? 1 : 0);
            w.endSequence();
            sendFrame(fd, MsgType::cancel, MsgStatus::ok, w.finish());
            return true;
        }
        case MsgType::resume: {
            DerReader r(req.payload);
            DerReader s = r.getSequence();
            const std::uint64_t id = s.getUint();
            expectRequestEnd(r, s);
            const SubmitOutcome out = svc_.resume(id);
            if (out.accepted)
                sendFrame(fd, MsgType::resume, MsgStatus::ok,
                          encodeId(out.id));
            else
                sendFrame(fd, MsgType::resume, MsgStatus::error,
                          encodeError(out.error));
            return true;
        }
        case MsgType::query: {
            DerReader r(req.payload);
            DerReader s = r.getSequence();
            const std::string workload = s.getString();
            const std::uint64_t digest = s.getUint();
            expectRequestEnd(r, s);
            DerWriter w;
            w.beginSequence();
            w.putString(svc_.queryResults(workload, digest));
            w.endSequence();
            sendFrame(fd, MsgType::query, MsgStatus::ok, w.finish());
            return true;
        }
        case MsgType::drain: {
            svc_.drain();
            sendFrame(fd, MsgType::drain, MsgStatus::ok, Blob());
            return false;
        }
        }
        sendFrame(fd, req.type, MsgStatus::error,
                  encodeError("unknown message type"));
        return true;
    } catch (const IoError &) {
        throw; // the connection itself failed; caller closes it
    } catch (const std::exception &e) {
        sendFrame(fd, req.type, MsgStatus::error,
                  encodeError(e.what()));
        return true;
    }
}

} // namespace lp
