/**
 * The io layer's contract: MappedFile maps a file's exact bytes with
 * working paging hints and clean move semantics, maps an empty file
 * to a zero-length handle, and throws an IoError naming the file when
 * the file is missing or the map fails — which a library load
 * surfaces as it is, with no second way to hold the bytes. Every file
 * and socket system call follows one retry policy: one table drives
 * each site through an injected EINTR (retried, same result) and
 * EINTR on every attempt (a bounded, named IoError).
 */

#include "test_util.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <type_traits>

#include <sys/socket.h>
#include <unistd.h>

#include "io/atomic_file.hh"
#include "io/io_error.hh"
#include "io/mapped_file.hh"
#include "io/source.hh"
#include "svc/proto.hh"
#include "util/failpoint.hh"
#include "util/retry.hh"

namespace
{

void
writeFile(const std::string &path, const lp::Blob &data)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    CHECK(f != nullptr);
    if (!data.empty())
        CHECK(std::fwrite(data.data(), 1, data.size(), f) ==
              data.size());
    std::fclose(f);
}

/**
 * Run @p fn and return the what() of the @p E it throws, or nullopt
 * when it returns or throws anything else.
 */
template <class E, class F>
std::optional<std::string>
thrown(F fn, int *errnum = nullptr)
{
    try {
        fn();
    } catch (const E &e) {
        if constexpr (std::is_base_of_v<lp::IoError, E>) {
            if (errnum)
                *errnum = e.errnum();
        }
        return std::string(e.what());
    } catch (...) {
    }
    return std::nullopt;
}

bool
mentions(const std::optional<std::string> &msg, const std::string &s)
{
    return msg && msg->find(s) != std::string::npos;
}

/** Run @p op and return its result, or report what it threw. */
std::optional<lp::Blob>
result(const std::function<lp::Blob()> &op)
{
    try {
        return op();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "  threw: %s\n", e.what());
    }
    return std::nullopt;
}

/** Both ends of a connected socket pair, closed on scope exit. */
struct SocketPair
{
    int fd[2] = {-1, -1};
    SocketPair() { CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
    ~SocketPair()
    {
        ::close(fd[0]);
        ::close(fd[1]);
    }
};

} // namespace

int
main()
{
    using namespace lp;
    using namespace lptest;

    const std::string path = "iotest-data.bin";
    Blob payload(256 * 1024);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
    writeFile(path, payload);

    // MappedFile: exact bytes, a working hint, clean move semantics.
    {
        MappedFile m = MappedFile::map(path);
        CHECK(m.mapped());
        CHECK_EQ(m.size(), payload.size());
        CHECK(std::memcmp(m.data(), payload.data(), payload.size()) ==
              0);

        // The hint is advisory: the bytes stay readable.
        m.adviseSequential();
        CHECK(std::memcmp(m.data(), payload.data(), payload.size()) ==
              0);

        MappedFile moved = std::move(m);
        CHECK(!m.mapped());
        CHECK(moved.mapped());
        CHECK_EQ(moved.size(), payload.size());
        CHECK(std::memcmp(moved.data(), payload.data(),
                          payload.size()) == 0);
    }

    // A missing file throws the IoError naming it.
    {
        const std::string missing = "iotest-does-not-exist.bin";
        int err = 0;
        const auto msg =
            thrown<IoError>([&] { MappedFile::map(missing); }, &err);
        CHECK(mentions(msg, missing));
        CHECK_EQ(err, ENOENT);
        CHECK(mentions(thrown<IoError>([&] {
                           LivePointLibrary::load(missing);
                       }),
                       missing));
    }

    // An empty file maps to a zero-length handle, and a library load
    // rejects it as not a library.
    {
        const std::string empty = "iotest-empty.bin";
        writeFile(empty, {});
        const MappedFile m = MappedFile::map(empty);
        CHECK(!m.mapped());
        CHECK_EQ(m.size(), 0u);
        const auto msg = thrown<std::runtime_error>(
            [&] { LivePointLibrary::load(empty); });
        CHECK(mentions(msg, "not a live-point library"));
        CHECK(mentions(msg, empty));
        std::remove(empty.c_str());
    }

    // A failed map is the load's error: the IoError names the file
    // and carries the errno, and nothing falls back to reading the
    // file some other way. The same load succeeds once disarmed.
    {
        const TinyLib t = buildTinyLibrary("iotest", 120'000, 3, 6);
        const std::string libPath = "iotest-lib.lpl";
        t.lib.save(libPath);

        FailpointSpec spec;
        spec.trigger = FailpointSpec::Trigger::nth;
        spec.n = 1;
        spec.err = ENOMEM;
        armFailpoint("io.mmap.map", spec);
        int err = 0;
        const auto msg = thrown<IoError>(
            [&] { LivePointLibrary::load(libPath); }, &err);
        disarmAllFailpoints();
        CHECK(mentions(msg, libPath));
        CHECK(mentions(msg, std::strerror(ENOMEM)));
        CHECK_EQ(err, ENOMEM);

        spec.err = EACCES;
        armFailpoint("io.mmap.open", spec);
        err = 0;
        CHECK(mentions(thrown<IoError>(
                           [&] { LivePointLibrary::load(libPath); },
                           &err),
                       libPath));
        disarmAllFailpoints();
        CHECK_EQ(err, EACCES);

        // LP_FAILPOINTS names ENOMEM, the map failure, as spelled.
        armFailpointsFromSpec("io.mmap.map=hit:1:err:ENOMEM");
        err = 0;
        CHECK(mentions(thrown<IoError>(
                           [&] { LivePointLibrary::load(libPath); },
                           &err),
                       libPath));
        disarmAllFailpoints();
        CHECK_EQ(err, ENOMEM);

        const LivePointLibrary back = LivePointLibrary::load(libPath);
        CHECK_EQ(back.backingBytes(), std::filesystem::file_size(libPath));
        CHECK(identicalRecords(back, t.lib));
        CHECK_EQ(back.contentHash(), t.lib.contentHash());
        std::remove(libPath.c_str());
    }

    // One policy at every system-call site: each attempt fires the
    // site's failpoint, and a transient errno, injected or real, is
    // retried at the call. At every file and socket site, one injected
    // EINTR costs exactly one more hit and changes nothing; EINTR on
    // every attempt exhausts the budget (one try plus the retries) and
    // throws an IoError naming the file, or the socket, and EINTR,
    // with no staging temp left behind.
    {
        const std::string out = "iotest-out.bin";
        const std::string outTmp = AtomicFileWriter::tempFileName(out);
        const Blob message(payload.begin(), payload.begin() + 4096);
        const std::function<Blob()> readBack = [&] {
            return readWholeFile(path, "test file");
        };
        const std::function<Blob()> mapBack = [&] {
            const MappedFile m = MappedFile::map(path);
            return Blob(m.data(), m.data() + m.size());
        };
        const std::function<Blob()> publish = [&] {
            writeFileAtomic(out, payload.data(), payload.size(),
                            "test file");
            return readWholeFile(out, "test file");
        };
        const std::function<Blob()> roundTrip = [&] {
            SocketPair sp;
            sendFrame(sp.fd[0], MsgType::status, MsgStatus::ok, message);
            Frame f;
            CHECK(recvFrame(sp.fd[1], f));
            CHECK(f.type == MsgType::status);
            return f.payload;
        };
        struct Row
        {
            const char *site;
            const std::string &named; //!< what the error must name
            const std::function<Blob()> &op;
            const Blob &expect;
        };
        const std::string socket = "service socket";
        const Row rows[] = {
            {"io.open.read", path, readBack, payload},
            {"io.read", path, readBack, payload},
            {"io.open.write", out, publish, payload},
            {"io.write", out, publish, payload},
            {"io.fsync", out, publish, payload},
            {"io.rename", out, publish, payload},
            {"io.dirsync", out, publish, payload},
            {"io.mmap.open", path, mapBack, payload},
            {"io.mmap.map", path, mapBack, payload},
            {"svc.read", socket, roundTrip, message},
            {"svc.write", socket, roundTrip, message},
        };
        FailpointSpec never; // counts hits, never fires
        never.n = ~std::uint64_t{0};
        for (const Row &row : rows) {
            const int before = lpTestFailures;
            const std::string site = row.site;
            std::filesystem::remove(out);
            armFailpoint(site, never);
            const std::optional<Blob> clean = result(row.op);
            const std::uint64_t cleanHits = failpointHits(site);
            CHECK(cleanHits > 0);
            CHECK(clean == row.expect);

            armFailpointsFromSpec(site + "=hit:1:err:EINTR");
            const std::optional<Blob> retried = result(row.op);
            CHECK_EQ(failpointHits(site), cleanHits + 1);
            CHECK(retried && retried == clean);

            std::filesystem::remove(out);
            armFailpointsFromSpec(site + "=every:1:err:EINTR");
            int err = 0;
            const auto msg = thrown<IoError>(row.op, &err);
            CHECK_EQ(failpointHits(site),
                     static_cast<std::uint64_t>(RetryPolicy{}.attempts) +
                         1);
            disarmAllFailpoints();
            CHECK(mentions(msg, row.named));
            CHECK(mentions(msg, std::strerror(EINTR)));
            CHECK_EQ(err, EINTR);
            CHECK(!std::filesystem::exists(outTmp));
            if (lpTestFailures != before)
                std::fprintf(stderr, "  ... at site %s\n", row.site);
        }
        std::filesystem::remove(out);
    }

    std::remove(path.c_str());
    return TEST_MAIN_RESULT();
}
