/**
 * @file
 * lpserved — the campaign service daemon. Owns one LibrarySet fleet
 * store and a worker-slot budget, accepts JobSpecs over a Unix domain
 * socket (see src/svc/proto.hh), schedules them concurrently, and
 * recovers in-flight jobs across restarts from their campaign
 * manifests.
 *
 * Usage: lpserved --set <dir> [options]
 *   --socket <path>      listen socket   (LP_SVC_SOCKET)
 *   --jobs <dir>         job directories (LP_SVC_JOBS_DIR)
 *   --set <dir>          fleet store     (LP_SVC_SET)
 *   --slots <n>          worker budget   (LP_SVC_WORKER_SLOTS)
 *   --queue <n>          max queued jobs (LP_SVC_MAX_QUEUE)
 *   --resident <bytes>   admission bound (LP_SVC_MAX_RESIDENT_BYTES)
 *   --results <path>     fleet result store (LP_SVC_RESULTS;
 *                        default <jobs>/results.lpres)
 *
 * Flags override the LP_SVC_* environment; defaults are a socket and
 * jobs directory beside the set. Runs until `lpsubmit drain` (or
 * SIGINT/SIGTERM, which cancels running jobs resumably).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

std::string
envOr(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

std::uint64_t
envOrU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? std::strtoull(v, nullptr, 10) : fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceConfig cfg;
    cfg.setDir = envOr("LP_SVC_SET", "");
    cfg.jobsDir = envOr("LP_SVC_JOBS_DIR", "");
    std::string socketPath = envOr("LP_SVC_SOCKET", "");
    cfg.workerSlots = static_cast<unsigned>(
        envOrU64("LP_SVC_WORKER_SLOTS", cfg.workerSlots));
    cfg.maxQueueDepth = static_cast<std::size_t>(
        envOrU64("LP_SVC_MAX_QUEUE", cfg.maxQueueDepth));
    cfg.maxResidentBytes =
        envOrU64("LP_SVC_MAX_RESIDENT_BYTES", cfg.maxResidentBytes);
    cfg.resultStorePath = envOr("LP_SVC_RESULTS", "");

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        auto need = [&]() -> const char * {
            if (!val)
                panic("flag %s needs a value", a.c_str());
            ++i;
            return val;
        };
        if (a == "--set")
            cfg.setDir = need();
        else if (a == "--jobs")
            cfg.jobsDir = need();
        else if (a == "--socket")
            socketPath = need();
        else if (a == "--slots")
            cfg.workerSlots =
                static_cast<unsigned>(std::strtoull(need(), nullptr, 10));
        else if (a == "--queue")
            cfg.maxQueueDepth = static_cast<std::size_t>(
                std::strtoull(need(), nullptr, 10));
        else if (a == "--resident")
            cfg.maxResidentBytes = std::strtoull(need(), nullptr, 10);
        else if (a == "--results")
            cfg.resultStorePath = need();
        else
            panic("unknown flag '%s'", a.c_str());
    }
    if (cfg.setDir.empty())
        panic("lpserved: --set <dir> (or LP_SVC_SET) is required");
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
