/**
 * @file
 * The repository's own lpserved daemon as a child process on a socket
 * inside the run directory, and the client-side job round trip the
 * workloads time: submit, poll status at a fixed period, fetch the
 * result.
 */

#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

#include <chrono>
#include <memory>
#include <string>

#include <sys/types.h>

#include "svc/client.hh"

namespace pb
{

class Tracer;

/**
 * One lpserved process. The destructor SIGKILLs and reaps a daemon
 * that was not stopped cleanly, so no process outlives the benchmark.
 */
class DaemonProcess
{
  public:
    /**
     * Spawn lpserved over the fleet set @p setDir with job directories
     * and socket under @p runDir; @p resultsPath is its result store.
     * Returns once a client connection is established.
     */
    DaemonProcess(const std::string &setDir, const std::string &runDir,
                  const std::string &resultsPath);
    ~DaemonProcess();

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    lp::SvcClient &client() { return *client_; }

    /** Peak resident set of the daemon so far (VmHWM), MiB. */
    double peakRssMb() const;

    /** Drain the daemon and reap it; throws on a nonzero exit. */
    void stop();

  private:
    void kill(); //!< SIGKILL and reap, if still running

    pid_t pid_ = -1;
    std::unique_ptr<lp::SvcClient> client_;
};

/** The outcome of one submit -> poll -> result round trip. */
struct JobRoundTrip
{
    bool ok = false;
    std::string error;
    std::string json; //!< campaign report of a done job
    double latencyMs = 0.0; //!< submit sent -> result received
    unsigned polls = 0;     //!< status requests issued
    unsigned rejects = 0;   //!< admission retry-later replies
};

/**
 * Submit @p spec and wait for it, polling status every @p poll. The
 * poll period must sit well below the latency being measured; a
 * retry-later reply is honoured and counted. With @p tracer, each
 * request is recorded as an svc span.
 */
JobRoundTrip runJob(lp::SvcClient &client, const lp::JobSpec &spec,
                    std::chrono::microseconds poll,
                    Tracer *tracer = nullptr);

} // namespace pb

#endif // PERFBENCH_DAEMON_HH
