#include "svc/proto.hh"

#include <cstring>
#include <stdexcept>

#include <unistd.h>

#include "codec/der.hh"
#include "io/atomic_file.hh"
#include "io/io_error.hh"
#include "util/bytes.hh"
#include "util/log.hh"
#include "util/retry.hh"

namespace lp
{

namespace
{

constexpr std::size_t kFrameHeaderBytes = 32;

/** Throw unless every value of @p r was read. */
void
expectEnd(const DerReader &r, const char *where)
{
    if (!r.atEnd())
        throw std::runtime_error(
            strfmt("job spec: trailing data in %s", where));
}

void
writeAll(int fd, const std::uint8_t *data, std::size_t size)
{
    while (size > 0) {
        ::ssize_t n = 0;
        int err = 0;
        if (!retrySyscall("svc.write", &err, [&](bool) {
                return (n = ::write(fd, data, size)) >= 0;
            }))
            throwIoError("write", "service socket", "peer", err);
        data += n;
        size -= static_cast<std::size_t>(n);
    }
}

/**
 * Read exactly @p size bytes. Returns false on EOF before the first
 * byte when @p eofOk (a peer that closed between frames); EOF
 * mid-frame always throws (a torn frame).
 */
bool
readAll(int fd, std::uint8_t *data, std::size_t size, bool eofOk)
{
    std::size_t got = 0;
    while (got < size) {
        ::ssize_t n = 0;
        int err = 0;
        if (!retrySyscall("svc.read", &err, [&](bool) {
                return (n = ::read(fd, data + got, size - got)) >= 0;
            }))
            throwIoError("read", "service socket", "peer", err);
        if (n == 0) {
            if (got == 0 && eofOk)
                return false;
            throw IoError(
                strfmt("service socket: torn frame (EOF after %zu of "
                       "%zu bytes)",
                       got, size),
                0);
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

void
sendFrame(int fd, MsgType type, MsgStatus status, const Blob &payload)
{
    std::uint8_t hdr[kFrameHeaderBytes];
    putU64le(hdr, kSvcMagic);
    putU64le(hdr + 8,
             static_cast<std::uint64_t>(type) |
                 (static_cast<std::uint64_t>(status) << 32));
    putU64le(hdr + 16, payload.size());
    putU64le(hdr + 24, fnv1a(payload.data(), payload.size()));
    writeAll(fd, hdr, sizeof(hdr));
    if (!payload.empty())
        writeAll(fd, payload.data(), payload.size());
}

bool
recvFrame(int fd, Frame &out)
{
    std::uint8_t hdr[kFrameHeaderBytes];
    if (!readAll(fd, hdr, sizeof(hdr), /*eofOk=*/true))
        return false;
    if (getU64le(hdr) != kSvcMagic)
        throw IoError("service socket: bad frame magic", 0);
    const std::uint64_t tw = getU64le(hdr + 8);
    out.type = static_cast<MsgType>(tw & 0xffffffffu);
    out.status = static_cast<MsgStatus>(tw >> 32);
    const std::uint64_t len = getU64le(hdr + 16);
    const std::uint64_t sum = getU64le(hdr + 24);
    // A frame is one request or reply; anything huge is a protocol
    // error, not a message (and must not drive an allocation).
    if (len > (64ull << 20))
        throw IoError("service socket: oversized frame", 0);
    out.payload.resize(static_cast<std::size_t>(len));
    if (len)
        readAll(fd, out.payload.data(), out.payload.size(),
                /*eofOk=*/false);
    if (fnv1a(out.payload.data(), out.payload.size()) != sum)
        throw IoError("service socket: frame checksum mismatch", 0);
    return true;
}

Blob
encodeId(std::uint64_t id)
{
    DerWriter w;
    w.beginSequence();
    w.putUint(id);
    w.endSequence();
    return w.finish();
}

Blob
encodeJobSpec(const JobSpec &spec)
{
    DerWriter w;
    w.beginSequence();
    w.putString(spec.name);
    w.beginSequence();
    for (const JobWorkloadSpec &wl : spec.workloads) {
        w.beginSequence();
        w.putString(wl.shard);
        w.putString(wl.profile);
        w.putUint(wl.tinyInsts);
        w.putUint(wl.tinySeed);
        w.endSequence();
    }
    w.endSequence();
    w.beginSequence();
    for (const JobConfigSpec &c : spec.configs) {
        w.beginSequence();
        w.putString(c.preset);
        w.putString(c.name);
        w.putUint(c.memLatency);
        w.putUint(c.l2Latency);
        w.putUint(c.l2SizeBytes);
        w.endSequence();
    }
    w.endSequence();
    w.putDouble(spec.level);
    w.putDouble(spec.relativeError);
    w.putUint(spec.stopAtConfidence ? 1 : 0);
    w.putUint(spec.approxWrongPath ? 1 : 0);
    w.putUint(spec.shuffleSeed);
    w.putUint(spec.threads);
    w.putUint(spec.decodeThreads);
    w.putUint(spec.blockSize);
    w.putUint(spec.maxFoldedReplays);
    w.putUint(spec.deadlineMs);
    w.endSequence();
    return w.finish();
}

JobSpec
decodeJobSpec(const Blob &payload)
{
    JobSpec spec;
    DerReader top(payload);
    DerReader s = top.getSequence();
    spec.name = s.getString();
    {
        DerReader ws = s.getSequence();
        spec.workloads.clear();
        while (!ws.atEnd()) {
            DerReader e = ws.getSequence();
            JobWorkloadSpec wl;
            wl.shard = e.getString();
            wl.profile = e.getString();
            wl.tinyInsts = e.getUint();
            wl.tinySeed = e.getUint();
            expectEnd(e, "a workload row");
            spec.workloads.push_back(std::move(wl));
        }
    }
    {
        DerReader cs = s.getSequence();
        spec.configs.clear();
        while (!cs.atEnd()) {
            DerReader e = cs.getSequence();
            JobConfigSpec c;
            c.preset = e.getString();
            c.name = e.getString();
            c.memLatency = e.getUint();
            c.l2Latency = e.getUint();
            c.l2SizeBytes = e.getUint();
            expectEnd(e, "a config row");
            spec.configs.push_back(std::move(c));
        }
    }
    spec.level = s.getDouble();
    spec.relativeError = s.getDouble();
    spec.stopAtConfidence = s.getUint() != 0;
    spec.approxWrongPath = s.getUint() != 0;
    spec.shuffleSeed = s.getUint();
    spec.threads = static_cast<std::uint32_t>(s.getUint());
    spec.decodeThreads = static_cast<std::uint32_t>(s.getUint());
    spec.blockSize = s.getUint();
    spec.maxFoldedReplays = s.getUint();
    spec.deadlineMs = s.getUint();
    expectEnd(s, "the spec");
    expectEnd(top, "the payload");
    return spec;
}

} // namespace lp
