#include "workloads.hh"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common.hh"
#include "core/library_set.hh"
#include "daemon.hh"
#include "reference.hh"
#include "util/log.hh"
#include "util/rng.hh"

namespace pb
{

namespace
{

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** The end-to-end metrics every workload reports, in BENCHMARK.json order. */
void
addEndToEnd(RunResult &r, double setupS, double workPerS, double opMsP50,
            double peakRssMb, double bytesPerPoint)
{
    r.add("setup_s", setupS, "s");
    r.add("work_per_s", workPerS, "1/s");
    r.add("op_ms_p50", opMsP50, "ms");
    r.add("peak_rss_mb", peakRssMb, "MiB");
    r.add("bytes_per_point", bytesPerPoint, "B");
}

void
noteFailures(RunResult &r)
{
    r.note(lp::strfmt("failed_frac: %.6f (%llu of %llu operations)",
                      r.attempted ? static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                                  : 0.0,
                      static_cast<unsigned long long>(r.failed),
                      static_cast<unsigned long long>(r.attempted)));
}

} // namespace

// ---------------------------------------------------------------------
// dse-cold
// ---------------------------------------------------------------------

RunResult
runDseCold(const RunArgs &a)
{
    RunResult r;
    const auto tFleet = Clock::now();
    const FleetInputs in = makeFleetInputs();
    const std::string setDir = a.runDir + "/fleet";
    const FleetSummary fleet = buildExactFleet(setDir, in);
    r.note(lp::strfmt("fleet: %llu points, %.0f B/point, built in %.2f s "
                      "(not part of setup_s)",
                      static_cast<unsigned long long>(fleet.points),
                      fleet.bytesPerPoint(), secondsSince(tFleet)));

    // Set-up: start the daemon (it opens the fleet and its empty
    // result store) and run one cold warm-up grid.
    const std::chrono::microseconds poll(kColdPollUs);
    const std::vector<std::uint64_t> warmSeeds =
        gridSeeds(a.seed, "dse-cold.warmup", kSetupReps);
    std::unique_ptr<DaemonProcess> daemon;
    std::vector<double> setups;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        if (daemon)
            daemon->stop();
        daemon.reset();
        const std::string rd = a.runDir + "/svc" + std::to_string(rep);
        makeDirs(rd);
        const auto t0 = Clock::now();
        daemon = std::make_unique<DaemonProcess>(setDir, rd,
                                                 rd + "/results.lpres");
        const JobRoundTrip w = runJob(
            daemon->client(), gridSpec(warmSeeds[rep], "warmup"), poll);
        setups.push_back(secondsSince(t0));
        ++r.attempted;
        if (!w.ok)
            r.fail("warm-up grid: " + w.error);
    }
    DaemonProcess &d = *daemon;

    // Closed loop: the next grid is submitted when the previous
    // result has arrived; every grid has a fresh shuffle seed.
    lp::Rng rng(a.seed, "dse-cold");
    struct Done
    {
        std::uint64_t seed;
        std::vector<std::string> bits;
        double folded;
    };
    std::vector<Done> done;
    std::vector<double> latencyMs;
    double folded = 0.0, retired = 0.0;
    unsigned polls = 0;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.seconds));
    while (Clock::now() < deadline) {
        const std::uint64_t seed = nextSeed(rng);
        ++r.attempted;
        const JobRoundTrip j =
            runJob(d.client(), gridSpec(seed, "dse-cold"), poll);
        if (!j.ok) {
            r.fail("grid: " + j.error);
            continue;
        }
        std::string why;
        std::vector<std::string> bits =
            checkGridReport(j.json, /*memoized=*/false, &why);
        if (!why.empty()) {
            r.fail("grid report: " + why);
            continue;
        }
        const double f = jsonNumber(j.json, "folded_replays");
        folded += f;
        retired += jsonNumber(j.json, "retirements");
        polls += j.polls;
        latencyMs.push_back(j.latencyMs);
        done.push_back({seed, std::move(bits), f});
    }
    const double rss = d.peakRssMb();
    d.stop();

    // Output checks, untimed: every grid against an in-process
    // campaign with the same seed, and one smoke cell against SMARTS
    // full warming.
    const lp::LibrarySet set = lp::LibrarySet::open(setDir);
    for (const Done &j : done) {
        const ReferenceGrid ref = referenceGrid(set, in, j.seed);
        if (ref.bits != j.bits)
            r.fail(lp::strfmt("grid seed %llu: cpi_bits differ from the "
                              "in-process campaign",
                              static_cast<unsigned long long>(j.seed)));
        else if (ref.folded != j.folded)
            r.fail("grid folded_replays differ from the in-process run");
    }
    ++r.attempted;
    std::string smoke;
    if (!smokeMatchesSmarts(set, in, &smoke))
        r.fail(smoke);
    r.note(smoke);

    const double busyS =
        std::accumulate(latencyMs.begin(), latencyMs.end(), 0.0) / 1e3;
    const double replaysPerS = busyS > 0 ? folded / busyS : 0.0;
    r.note(lp::strfmt("replays_per_s: %.1f (%.0f folded replays in %.2f s "
                      "of %zu grids)",
                      replaysPerS, folded, busyS, latencyMs.size()));
    std::vector<double> jobS;
    for (double ms : latencyMs)
        jobS.push_back(ms / 1e3);
    r.note("job_s: " + describeLatency(jobS, "s"));
    std::vector<double> perGrid;
    for (std::size_t k = 0; k < done.size(); ++k)
        perGrid.push_back(done[k].folded / jobS[k]);
    r.note(lp::strfmt("replays_per_s per grid: q1 %.1f, median %.1f, q3 "
                      "%.1f",
                      quantile(perGrid, 0.25), quantile(perGrid, 0.5),
                      quantile(perGrid, 0.75)));
    r.note(lp::strfmt("retired cells per grid: %.2f; status polls per "
                      "grid: %.1f at a %u us poll period",
                      done.empty() ? 0.0 : retired / done.size(),
                      done.empty() ? 0.0
                                   : static_cast<double>(polls) /
                                         done.size(),
                      kColdPollUs));
    noteFailures(r);
    addEndToEnd(r, median(setups), replaysPerS, median(latencyMs),
                rss, fleet.bytesPerPoint());
    return r;
}

// ---------------------------------------------------------------------
// dse-memo
// ---------------------------------------------------------------------

RunResult
runDseMemo(const RunArgs &a)
{
    RunResult r;
    const auto tFleet = Clock::now();
    const FleetInputs in = makeFleetInputs();
    const std::string setDir = a.runDir + "/fleet";
    const FleetSummary fleet = buildExactFleet(setDir, in);
    r.note(lp::strfmt("fleet: %llu points, %.0f B/point, built in %.2f s "
                      "(not part of setup_s)",
                      static_cast<unsigned long long>(fleet.points),
                      fleet.bytesPerPoint(), secondsSince(tFleet)));

    // Fill the result store with G cold grids; their reports are the
    // reference every memoized resubmit must reproduce bit for bit.
    constexpr std::size_t G = 3;
    const std::vector<std::uint64_t> seeds = gridSeeds(a.seed, "dse-memo", G);
    const std::string results = a.runDir + "/results.lpres";
    std::vector<std::vector<std::string>> refBits(G);
    {
        const auto t0 = Clock::now();
        const std::string rd = a.runDir + "/svc-fill";
        makeDirs(rd);
        DaemonProcess fill(setDir, rd, results);
        for (std::size_t g = 0; g < G; ++g) {
            ++r.attempted;
            const JobRoundTrip j =
                runJob(fill.client(), gridSpec(seeds[g], "fill"),
                       std::chrono::microseconds(kColdPollUs));
            std::string why = j.error;
            if (j.ok)
                refBits[g] = checkGridReport(j.json, false, &why);
            if (!why.empty())
                r.fail("fill grid: " + why);
        }
        fill.stop();
        r.note(lp::strfmt("store filled with %zu grids in %.2f s (not "
                          "part of setup_s)",
                          G, secondsSince(t0)));
    }

    const std::chrono::microseconds poll(kMemoPollUs);
    std::size_t checkedResubmits = 0;
    auto resubmit = [&](lp::SvcClient &c, std::size_t g,
                        JobRoundTrip *out) {
        ++r.attempted;
        *out = runJob(c, gridSpec(seeds[g], "dse-memo"), poll);
        if (!out->ok) {
            r.fail("resubmit: " + out->error);
            return false;
        }
        std::string why;
        const std::vector<std::string> bits =
            checkGridReport(out->json, /*memoized=*/true, &why);
        if (why.empty() && bits != refBits[g])
            why = "memoized cpi_bits differ from the cold run";
        if (!why.empty()) {
            r.fail("resubmit: " + why);
            return false;
        }
        ++checkedResubmits;
        return true;
    };

    // Filter choices of a query and the cell count each must return.
    std::vector<std::uint64_t> digests;
    for (const lp::JobConfigSpec &c : gridConfigs())
        digests.push_back(lp::configDigest(materialize(c)));

    // The requests run in sessions of kMemoSessionRequests, each on a
    // freshly started daemon with an empty jobs directory over the
    // same store. Every resubmit leaves a job directory behind and
    // later requests pay for the ones before, so a session bounds that
    // growth and keeps runs comparable. Each session's start, store
    // load and one memoized warm-up resubmit is a set-up sample.
    lp::Rng rng(a.seed, "dse-memo.mix");
    std::vector<double> setups, resubmitMs, queryMs, firstTenth, lastTenth;
    std::vector<double> sessionP50s;
    unsigned polls = 0;
    double window = 0.0, rss = 0.0;
    const std::uint64_t requests =
        static_cast<std::uint64_t>(kMemoRequestsPerSecond * a.seconds);
    const auto cutoff =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(6.0 * a.seconds));
    std::uint64_t op = 0;
    for (unsigned session = 0; op < requests && Clock::now() < cutoff;
         ++session) {
        const std::string rd =
            a.runDir + "/svc" + std::to_string(session);
        makeDirs(rd);
        const auto t0 = Clock::now();
        DaemonProcess d(setDir, rd, results);
        JobRoundTrip w;
        resubmit(d.client(), session % G, &w);
        setups.push_back(secondsSince(t0));

        std::vector<double> sessionMs;
        const auto start = Clock::now();
        for (std::uint64_t k = 0; k < kMemoSessionRequests &&
                                  op < requests && Clock::now() < cutoff;
             ++k, ++op) {
            if (rng.nextBool(0.5)) {
                JobRoundTrip j;
                if (resubmit(d.client(), rng.nextBounded(G), &j)) {
                    sessionMs.push_back(j.latencyMs);
                    polls += j.polls;
                }
                continue;
            }
            const std::size_t wl = rng.nextBounded(fleetShards().size() + 1);
            const std::size_t c = rng.nextBounded(digests.size() + 1);
            const std::string shard = wl ? fleetShards()[wl - 1].name : "";
            const std::uint64_t digest = c ? digests[c - 1] : 0;
            ++r.attempted;
            const auto tq = Clock::now();
            const lp::SvcReply q = d.client().query(shard, digest);
            const double ms = msBetween(tq, Clock::now());
            const double want = static_cast<double>(
                G * (wl ? 1 : fleetShards().size()) *
                (c ? 1 : digests.size()));
            const double got = jsonNumber(q.resultJson, "cell_count");
            if (!q.ok)
                r.fail("query: " + q.detail);
            else if (got != want)
                r.fail(lp::strfmt("query %s/%016llx: cell_count %.0f, "
                                  "want %.0f",
                                  shard.c_str(),
                                  static_cast<unsigned long long>(digest),
                                  got, want));
            else
                queryMs.push_back(ms);
        }
        window += secondsSince(start);
        rss = std::max(rss, d.peakRssMb());
        d.stop();
        removeTree(rd);
        const std::size_t tenth = sessionMs.size() / 10;
        firstTenth.insert(firstTenth.end(), sessionMs.begin(),
                          sessionMs.begin() + tenth);
        lastTenth.insert(lastTenth.end(), sessionMs.end() - tenth,
                         sessionMs.end());
        resubmitMs.insert(resubmitMs.end(), sessionMs.begin(),
                          sessionMs.end());
        sessionP50s.push_back(median(sessionMs));
    }
    if (op < requests) {
        r.attempted += requests - op;
        r.fail(lp::strfmt("%llu requests lapsed at the time limit",
                          static_cast<unsigned long long>(requests - op)));
    }

    const double requestsPerS =
        static_cast<double>(resubmitMs.size() + queryMs.size()) / window;
    r.note("resubmit_ms: " + describeLatency(resubmitMs, "ms"));
    r.note("query_ms: " + describeLatency(queryMs, "ms"));
    r.note(lp::strfmt("resubmit p50 per session: %.3f to %.3f ms",
                      quantile(sessionP50s, 0.0), quantile(sessionP50s, 1.0)));
    r.note(lp::strfmt("resubmit drift as job directories accumulate: p50 "
                      "%.3f ms in the first tenth of each session, %.3f "
                      "ms in the last tenth (n=%zu each)",
                      median(firstTenth), median(lastTenth),
                      firstTenth.size()));
    r.note(lp::strfmt("requests_per_s: %.1f (%llu requests in %zu sessions "
                      "of up to %llu, %.2f s); status polls per resubmit: "
                      "%.1f at a %u us poll period; %zu resubmits checked",
                      requestsPerS, static_cast<unsigned long long>(op),
                      setups.size(),
                      static_cast<unsigned long long>(kMemoSessionRequests),
                      window,
                      resubmitMs.empty()
                          ? 0.0
                          : static_cast<double>(polls) / resubmitMs.size(),
                      kMemoPollUs, checkedResubmits));
    noteFailures(r);
    addEndToEnd(r, median(setups), requestsPerS, median(resubmitMs), rss,
                fleet.bytesPerPoint());
    return r;
}

// ---------------------------------------------------------------------
// fleet-build
// ---------------------------------------------------------------------

RunResult
runFleetBuild(const RunArgs &a)
{
    RunResult r;
    // Set-up: generate the three programs and their sample designs,
    // then one warm-up build (a small eon-2 library, 4 threads).
    std::vector<double> setups;
    FleetInputs in;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        in = makeFleetInputs();
        const std::size_t w = 2; // eon-2
        lp::SampleDesign small = in.designs[w];
        small = lp::SampleDesign::systematic(small.benchLength, 8,
                                             small.measureLen,
                                             small.warmLen);
        const std::string dir = a.runDir + "/warmup";
        {
            lp::LibrarySetWriter ws(dir);
            lp::LivePointBuilder(builderConfig(false, kBuildThreads))
                .buildInto(ws, fleetShards()[w].name, in.programs[w],
                           small);
        }
        setups.push_back(secondsSince(t0));
        removeTree(dir);
    }

    const auto &shards = fleetShards();
    lp::Rng rng(a.seed, "fleet-build");
    std::map<std::string, std::uint64_t> firstHash;
    std::vector<double> fleetMs;
    double insts = 0.0, busyS = 0.0, shortfall = 0.0;
    std::uint64_t points = 0, bytes = 0;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.seconds));
    // Whole fleets only: a fleet started before the deadline finishes.
    while (Clock::now() < deadline) {
        // Each fleet builds the shards in a seed-drawn order; the
        // content hashes must not depend on it.
        std::vector<std::size_t> order = {0, 1, 2};
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[rng.nextBounded(i + 1)]);
        const std::string dir =
            a.runDir + "/fleet-" + std::to_string(fleetMs.size());
        double fleetS = 0.0;
        {
            lp::LibrarySetWriter w(dir);
            for (std::size_t i : order) {
                ++r.attempted;
                const auto t0 = Clock::now();
                lp::LivePointBuilder b(
                    builderConfig(shards[i].delta, kBuildThreads));
                const lp::BuilderStats st = b.buildInto(
                    w, shards[i].name, in.programs[i], in.designs[i]);
                fleetS += secondsSince(t0);
                insts += static_cast<double>(st.instsSimulated +
                                             st.prePassInsts);
                shortfall += static_cast<double>(st.prefixShortfallInsts);
            }
        }
        busyS += fleetS;
        fleetMs.push_back(fleetS * 1e3);
        const FleetSummary fs = summarizeSet(dir);
        points += fs.points;
        bytes += fs.bytes;
        for (const auto &kv : fs.hashes) {
            auto it = firstHash.emplace(kv.first, kv.second).first;
            if (it->second != kv.second)
                r.fail(lp::strfmt("shard %s: content hash %016llx differs "
                                  "from the first build's %016llx",
                                  kv.first.c_str(),
                                  static_cast<unsigned long long>(kv.second),
                                  static_cast<unsigned long long>(
                                      it->second)));
        }
        removeTree(dir);
    }

    const double minstsPerS = busyS > 0 ? insts / busyS / 1e6 : 0.0;
    const double bytesPerPoint =
        points ? static_cast<double>(bytes) / static_cast<double>(points)
               : 0.0;
    r.note(lp::strfmt("build_minsts_per_s: %.2f (%zu fleets of %zu "
                      "shards, %u build threads)",
                      minstsPerS, fleetMs.size(), shards.size(),
                      kBuildThreads));
    r.note("fleet_build_ms: " + describeLatency(fleetMs, "ms"));
    r.note(lp::strfmt("bytes_per_point: %.1f; prefix shortfall: %.0f "
                      "insts",
                      bytesPerPoint, shortfall));
    for (const auto &kv : firstHash)
        r.note(lp::strfmt("content hash %s: %016llx", kv.first.c_str(),
                          static_cast<unsigned long long>(kv.second)));
    noteFailures(r);
    addEndToEnd(r, median(setups), insts / busyS, median(fleetMs),
                selfPeakRssMb(), bytesPerPoint);
    return r;
}

} // namespace pb
