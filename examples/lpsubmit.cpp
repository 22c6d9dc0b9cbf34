/**
 * @file
 * lpsubmit — client for the lpserved campaign service daemon.
 *
 * Usage: lpsubmit --socket <path> <command> ...
 *   submit [--name X] --workload SHARD[:PROFILE] ...
 *          [--tiny INSTS:SEED] --config PRESET[:NAME[:MEM[:L2LAT[:L2KB]]]] ...
 *          [--threads N] [--deadline-ms N] [--level L] [--rel R]
 *          [--seed N] [--block N] [--budget N]
 *          [--retries N]
 *            submit a job; prints its id. `--tiny` sets the synthetic
 *            program recipe used by workloads without a PROFILE.
 *            Admission rejections are retried with bounded,
 *            deterministic backoff that honors the daemon's
 *            retry-after hint (at most N retries, default 64);
 *            exit 3 when the budget lapses while the daemon is busy.
 *   status <id>        print state, progress, detail
 *   wait <id> [ms]     poll until the job is terminal
 *   result <id>        print the campaign JSON report (done jobs)
 *   cancel <id> [why]  drain the job to its next barrier
 *   resume <id>        re-enqueue a cancelled/failed job
 *   query [WORKLOAD] [DIGEST]
 *                      list the daemon's result store (zero
 *                      simulation), optionally filtered by workload
 *                      shard name and/or config digest (1-16 hex
 *                      digits)
 *   drain              run the daemon's queue dry and stop it
 *
 * Integers (ids, N, MEM, ...) are decimal digits only. A malformed
 * command line exits 2, naming the flag, before the daemon is
 * contacted.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "store/result_store.hh"
#include "svc/client.hh"
#include "util/log.hh"

using namespace lp;

namespace
{

std::vector<std::string>
splitColon(const std::string &s)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t next = s.find(':', pos);
        if (next == std::string::npos) {
            parts.push_back(s.substr(pos));
            break;
        }
        parts.push_back(s.substr(pos, next - pos));
        pos = next + 1;
    }
    return parts;
}

/** Report a malformed command line and exit 2. */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "lpsubmit: %s\n", msg.c_str());
    std::exit(2);
}

/** The decimal value of @p what's @p text, at most @p max. */
std::uint64_t
toU64(const std::string &text, const char *what,
      std::uint64_t max = UINT64_MAX)
{
    std::uint64_t v = 0;
    if (!parseDecimal(text, &v) || v > max)
        usageError(strfmt("%s needs a decimal integer up to %llu, not "
                          "'%s'",
                          what, static_cast<unsigned long long>(max),
                          text.c_str()));
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    int i = 1;
    if (i + 1 < argc && std::string(argv[i]) == "--socket") {
        socketPath = argv[i + 1];
        i += 2;
    }
    if (socketPath.empty())
        usageError("--socket <path> is required");
    if (i >= argc)
        usageError("no command (see header)");
    const std::string cmd = argv[i++];
    // The job id of status, wait, result, cancel and resume.
    auto jobId = [&]() {
        if (i >= argc)
            usageError(strfmt("%s: job id required", cmd.c_str()));
        return toU64(argv[i++], "job id");
    };

    try {
        if (cmd == "submit") {
            JobSpec spec;
            std::uint64_t tinyInsts = 0, tinySeed = 0;
            RetryPolicy retry;
            for (; i < argc; ++i) {
                const std::string a = argv[i];
                auto need = [&]() -> std::string {
                    if (i + 1 >= argc)
                        usageError(strfmt("%s needs a value", a.c_str()));
                    return argv[++i];
                };
                if (a == "--name")
                    spec.name = need();
                else if (a == "--workload") {
                    const auto p = splitColon(need());
                    JobWorkloadSpec w;
                    w.shard = p[0];
                    if (p.size() > 1)
                        w.profile = p[1];
                    spec.workloads.push_back(w);
                } else if (a == "--tiny") {
                    const auto p = splitColon(need());
                    tinyInsts = toU64(p[0], "--tiny INSTS");
                    tinySeed = p.size() > 1 ? toU64(p[1], "--tiny SEED") : 1;
                } else if (a == "--config") {
                    const auto p = splitColon(need());
                    JobConfigSpec c;
                    c.preset = p[0];
                    if (p.size() > 1)
                        c.name = p[1];
                    if (p.size() > 2)
                        c.memLatency = toU64(p[2], "--config MEM");
                    if (p.size() > 3)
                        c.l2Latency = toU64(p[3], "--config L2LAT");
                    if (p.size() > 4)
                        c.l2SizeBytes =
                            toU64(p[4], "--config L2KB", UINT64_MAX >> 10)
                            << 10;
                    spec.configs.push_back(c);
                } else if (a == "--threads")
                    spec.threads = static_cast<std::uint32_t>(
                        toU64(need(), "--threads", UINT32_MAX));
                else if (a == "--deadline-ms")
                    spec.deadlineMs = toU64(need(), "--deadline-ms");
                else if (a == "--level")
                    spec.level = std::atof(need().c_str());
                else if (a == "--rel")
                    spec.relativeError = std::atof(need().c_str());
                else if (a == "--seed")
                    spec.shuffleSeed = toU64(need(), "--seed");
                else if (a == "--block")
                    spec.blockSize = toU64(need(), "--block");
                else if (a == "--budget")
                    spec.maxFoldedReplays = toU64(need(), "--budget");
                else if (a == "--retries")
                    retry.attempts = static_cast<int>(
                        toU64(need(), "--retries", INT_MAX));
                else
                    usageError(
                        strfmt("unknown submit flag '%s'", a.c_str()));
            }
            for (JobWorkloadSpec &w : spec.workloads) {
                if (w.profile.empty()) {
                    w.tinyInsts = tinyInsts;
                    w.tinySeed = tinySeed;
                }
            }
            if (spec.configs.empty())
                spec.configs.push_back(JobConfigSpec{"eight", "", 0, 0, 0});
            SvcClient client(socketPath);
            const SvcReply r = client.submitWithRetry(spec, retry);
            if (r.ok) {
                std::printf("%llu\n",
                            static_cast<unsigned long long>(r.id));
                return 0;
            }
            if (r.retry) {
                std::fprintf(stderr,
                             "lpsubmit: daemon still busy after %d "
                             "retries (%s)\n",
                             retry.attempts, r.detail.c_str());
                return 3;
            }
            std::fprintf(stderr, "lpsubmit: rejected: %s\n",
                         r.detail.c_str());
            return 1;
        }

        if (cmd == "status" || cmd == "wait") {
            const std::uint64_t id = jobId();
            const std::uint64_t ms =
                cmd == "wait" && i < argc ? toU64(argv[i], "wait ms") : 0;
            SvcClient client(socketPath);
            const SvcReply r = cmd == "wait" ? client.waitForJob(id, ms)
                                             : client.status(id);
            if (!r.ok) {
                std::fprintf(stderr, "lpsubmit: %s\n",
                             r.detail.c_str());
                return 1;
            }
            std::printf("job %llu: %s (progress %llu)%s%s\n",
                        static_cast<unsigned long long>(id),
                        r.state.c_str(),
                        static_cast<unsigned long long>(r.progress),
                        r.detail.empty() ? "" : " — ",
                        r.detail.c_str());
            return 0;
        }

        if (cmd == "result") {
            const std::uint64_t id = jobId();
            SvcClient client(socketPath);
            const SvcReply r = client.result(id);
            if (!r.ok) {
                std::fprintf(stderr, "lpsubmit: %s\n",
                             r.detail.c_str());
                return 1;
            }
            if (r.state != "done") {
                std::fprintf(stderr, "lpsubmit: job is %s: %s\n",
                             r.state.c_str(), r.resultJson.c_str());
                return 1;
            }
            std::fputs(r.resultJson.c_str(), stdout);
            return 0;
        }

        if (cmd == "cancel") {
            const std::uint64_t id = jobId();
            const std::string why =
                i < argc ? argv[i] : "cancelled by lpsubmit";
            SvcClient client(socketPath);
            const SvcReply r = client.cancel(id, why);
            if (!r.ok && !r.detail.empty()) {
                std::fprintf(stderr, "lpsubmit: %s\n", r.detail.c_str());
                return 1;
            }
            std::printf(r.ok ? "cancelling job %llu\n"
                             : "no job %llu\n",
                        static_cast<unsigned long long>(id));
            return r.ok ? 0 : 1;
        }

        if (cmd == "resume") {
            const std::uint64_t id = jobId();
            SvcClient client(socketPath);
            const SvcReply r = client.resume(id);
            if (!r.ok) {
                std::fprintf(stderr, "lpsubmit: %s\n",
                             r.detail.c_str());
                return 1;
            }
            std::printf("resumed job %llu\n",
                        static_cast<unsigned long long>(r.id));
            return 0;
        }

        if (cmd == "query") {
            const std::string workload = i < argc ? argv[i++] : "";
            std::uint64_t digest = 0;
            if (i < argc && !parseHexDigest(argv[i], &digest))
                usageError(strfmt("'%s' is not a hex config digest",
                                  argv[i]));
            SvcClient client(socketPath);
            const SvcReply r = client.query(workload, digest);
            if (!r.ok) {
                std::fprintf(stderr, "lpsubmit: %s\n",
                             r.detail.c_str());
                return 1;
            }
            std::fputs(r.resultJson.c_str(), stdout);
            return 0;
        }

        if (cmd == "drain") {
            SvcClient(socketPath).drain();
            std::printf("daemon drained\n");
            return 0;
        }

        usageError(strfmt("unknown command '%s'", cmd.c_str()));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lpsubmit: %s\n", e.what());
        return 1;
    }
}
