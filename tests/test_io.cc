/**
 * The io layer's contract: MappedFile maps a file's exact bytes with
 * working paging hints and clean move semantics, maps an empty file
 * to a zero-length handle, retries an interrupted open, and throws an
 * IoError naming the file when the file is missing or the map fails —
 * which a library load surfaces as it is, with no second way to hold
 * the bytes. readWholeFile retries an interrupted open the same way.
 */

#include "test_util.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <type_traits>

#include "io/io_error.hh"
#include "io/mapped_file.hh"
#include "io/source.hh"
#include "util/failpoint.hh"

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

    // MappedFile: exact bytes, working hints, clean move semantics.
    {
        MappedFile m = MappedFile::map(path);
        CHECK(m.mapped());
        CHECK_EQ(m.size(), payload.size());
        CHECK(std::memcmp(m.data(), payload.data(), payload.size()) ==
              0);

        // Hints are advisory: any range (aligned or not, even past
        // the end) must leave the bytes readable.
        m.adviseSequential();
        m.willNeed(0, m.size());
        m.willNeed(1000, 9000);
        m.willNeed(m.size() - 1, 100);
        m.dontNeed(5000, 100000);
        m.dontNeed(0, m.size());
        m.willNeed(m.size() + 10, 5);
        m.dontNeed(m.size() + 10, 5);
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
        m.willNeed(0, 4096);
        m.dontNeed(0, 4096);
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

        // An interrupted open is retried like a real EINTR: the
        // injection fires once, the second attempt opens the file and
        // the load succeeds. EINTR on every attempt exhausts the
        // retry budget and fails with the file named.
        armFailpointsFromSpec("io.mmap.open=hit:1:err:EINTR");
        {
            const LivePointLibrary retried =
                LivePointLibrary::load(libPath);
            CHECK_EQ(failpointHits("io.mmap.open"), 2u);
            CHECK(identicalRecords(retried, t.lib));
        }
        disarmAllFailpoints();
        armFailpointsFromSpec("io.mmap.open=every:1:err:EINTR");
        err = 0;
        CHECK(mentions(thrown<IoError>(
                           [&] { LivePointLibrary::load(libPath); },
                           &err),
                       libPath));
        disarmAllFailpoints();
        CHECK_EQ(err, EINTR);

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

    // readWholeFile (job files, the campaign manifest) retries an
    // interrupted open like the mapping does: an injected EINTR is
    // retried and yields the same bytes, and EINTR on every attempt
    // exhausts the retry budget with an IoError naming the file.
    {
        armFailpointsFromSpec("io.open.read=hit:1:err:EINTR");
        const Blob got = readWholeFile(path, "test file");
        CHECK_EQ(failpointHits("io.open.read"), 2u);
        disarmAllFailpoints();
        CHECK(got == payload);

        armFailpointsFromSpec("io.open.read=every:1:err:EINTR");
        int err = 0;
        const auto msg = thrown<IoError>(
            [&] { readWholeFile(path, "test file"); }, &err);
        disarmAllFailpoints();
        CHECK(mentions(msg, path));
        CHECK(mentions(msg, std::strerror(EINTR)));
        CHECK_EQ(err, EINTR);
    }

    std::remove(path.c_str());
    return TEST_MAIN_RESULT();
}
