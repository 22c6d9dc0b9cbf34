#include "daemon.hh"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hh"
#include "svc/job.hh"
#include "trace.hh"
#include "util/log.hh"

extern char **environ;

namespace pb
{

DaemonProcess::DaemonProcess(const std::string &setDir,
                             const std::string &runDir,
                             const std::string &resultsPath)
{
    // Relative paths keep the socket path short whatever the checkout
    // path is; daemon and client share the working directory.
    const std::string socket = runDir + "/lpserved.sock";
    const std::string jobs = runDir + "/jobs";
    const std::string logPath = runDir + "/lpserved.log";
    const std::string slots = std::to_string(kDaemonSlots);
    std::vector<std::string> args = {
        PERFBENCH_LPSERVED, "--set",     setDir, "--jobs",
        jobs,               "--socket",  socket, "--slots",
        slots,              "--results", resultsPath};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        pid_ = -1;
        throw std::runtime_error(lp::strfmt("spawn %s: %s", argv[0],
                                            std::strerror(rc)));
    }
    try {
        client_ = std::make_unique<lp::SvcClient>(socket, 30000);
    } catch (...) {
        kill();
        throw;
    }
}

DaemonProcess::~DaemonProcess()
{
    client_.reset();
    kill();
}

void
DaemonProcess::kill()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
}

double
DaemonProcess::peakRssMb() const
{
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

void
DaemonProcess::stop()
{
    const lp::SvcReply rep = client_->drain();
    client_.reset();
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    if (!rep.ok)
        throw std::runtime_error("lpserved drain failed: " + rep.detail);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error(
            lp::strfmt("lpserved exited abnormally (status %d)", status));
}

JobRoundTrip
runJob(lp::SvcClient &client, const lp::JobSpec &spec,
       std::chrono::microseconds poll, Tracer *tracer)
{
    JobRoundTrip out;
    const auto t0 = Clock::now();
    lp::SvcReply rep;
    for (;;) {
        {
            Scope s(tracer, "svc.submit");
            rep = client.submit(spec);
        }
        if (!rep.retry)
            break;
        // Admission back-pressure: counted, and honoured.
        if (++out.rejects > 64) {
            out.error = "admission retries exhausted: " + rep.detail;
            return out;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(rep.retryAfterMs));
    }
    if (!rep.ok) {
        out.error = "submit refused: " + rep.detail;
        return out;
    }
    const std::uint64_t id = rep.id;
    for (;;) {
        lp::SvcReply st;
        {
            Scope s(tracer, "svc.status");
            st = client.status(id);
        }
        ++out.polls;
        if (!st.ok) {
            out.error = "status failed: " + st.detail;
            return out;
        }
        lp::JobState js;
        if (!lp::jobStateFromToken(st.state, &js)) {
            out.error = "unknown job state " + st.state;
            return out;
        }
        if (lp::jobStateTerminal(js))
            break;
        std::this_thread::sleep_for(poll);
    }
    lp::SvcReply res;
    {
        Scope s(tracer, "svc.result");
        res = client.result(id);
    }
    out.latencyMs = msBetween(t0, Clock::now());
    if (!res.ok || res.state != "done") {
        out.error = "job " + res.state + ": " + res.resultJson + res.detail;
        return out;
    }
    out.json = std::move(res.resultJson);
    out.ok = true;
    return out;
}

} // namespace pb
