/**
 * @file
 * lpserved — the campaign service daemon. Owns one LibrarySet fleet
 * store and a worker-slot budget, accepts JobSpecs over a Unix domain
 * socket (see src/svc/proto.hh), schedules them concurrently, and
 * recovers in-flight jobs across restarts from their campaign
 * manifests.
 *
 * Usage: lpserved --set <dir> [options]
 *   --socket <path>      listen socket   (default <set>/lpserved.sock)
 *   --jobs <dir>         job directories (default <set>/jobs)
 *   --set <dir>          fleet store     (required)
 *   --slots <n>          worker budget   (positive; default 4)
 *   --queue <n>          max queued jobs (positive; default 8)
 *   --resident <bytes>   admission bound (0 = off, the default)
 *   --results <path>     fleet result store
 *                        (default <jobs>/results.lpres)
 *
 * Numbers are decimal digits only. A malformed command line exits 2,
 * naming the flag, before anything is opened or bound. Runs until
 * `lpsubmit drain` (or SIGINT/SIGTERM, which cancels running jobs
 * resumably).
 */

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "svc/daemon.hh"
#include "util/log.hh"

using namespace lp;

namespace
{

SvcDaemon *gDaemon = nullptr;

void
onSignal(int)
{
    if (gDaemon)
        gDaemon->stop();
}

/** Report a malformed command line and exit 2. */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "lpserved: %s\n", msg.c_str());
    std::exit(2);
}

/** The decimal value of @p flag's @p text, in [@p min, @p max]. */
std::uint64_t
number(const std::string &flag, const char *text, std::uint64_t min,
       std::uint64_t max)
{
    std::uint64_t v = 0;
    if (!parseDecimal(text, &v) || v < min || v > max)
        usageError(strfmt("%s needs a decimal integer in [%llu, %llu], "
                          "not '%s'",
                          flag.c_str(),
                          static_cast<unsigned long long>(min),
                          static_cast<unsigned long long>(max), text));
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceConfig cfg;
    std::string socketPath;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError(strfmt("%s needs a value", a.c_str()));
            return argv[++i];
        };
        if (a == "--set")
            cfg.setDir = need();
        else if (a == "--jobs")
            cfg.jobsDir = need();
        else if (a == "--socket")
            socketPath = need();
        else if (a == "--slots")
            cfg.workerSlots =
                static_cast<unsigned>(number(a, need(), 1, UINT_MAX));
        else if (a == "--queue")
            cfg.maxQueueDepth =
                static_cast<std::size_t>(number(a, need(), 1, SIZE_MAX));
        else if (a == "--resident")
            cfg.maxResidentBytes = number(a, need(), 0, UINT64_MAX);
        else if (a == "--results")
            cfg.resultStorePath = need();
        else
            usageError(strfmt("unknown flag '%s'", a.c_str()));
    }
    if (cfg.setDir.empty())
        usageError("--set <dir> is required");
    if (cfg.jobsDir.empty())
        cfg.jobsDir = cfg.setDir + "/jobs";
    if (socketPath.empty())
        socketPath = cfg.setDir + "/lpserved.sock";

    try {
        SvcDaemon daemon(cfg, socketPath);
        gDaemon = &daemon;
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::printf("lpserved: set '%s', %zu shards, %u worker slots, "
                    "listening on '%s'\n",
                    cfg.setDir.c_str(), daemon.service().set().size(),
                    cfg.workerSlots, socketPath.c_str());
        std::fflush(stdout);
        daemon.run();
        gDaemon = nullptr;
        std::printf("lpserved: stopped\n");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lpserved: %s\n", e.what());
        return 1;
    }
    return 0;
}
