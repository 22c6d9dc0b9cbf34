/**
 * @file
 * inspect_results — answer cross-campaign questions from a fleet
 * result store with zero simulation: which (workload, config) cells
 * have converged results, at what CPI and confidence, and how pairs
 * of configurations compare on the same live points.
 *
 * Usage: inspect_results <store.lpres> [options]
 *   --set <dir>        resolve library hashes to shard names through
 *                      a fleet set index (metadata only; no shard is
 *                      opened, nothing is simulated)
 *   --workload <name>  only cells of this shard (needs --set) or of
 *                      a hex content hash
 *   --config <hex>     only cells/pairs touching this config digest
 *                      (1-16 hex digits; anything else exits 1)
 *   --json             machine-readable output: the same document the
 *                      service daemon's `query` request returns
 *
 * The text view prints each cell's CPI with the confidence half-width
 * the stored fold state yields under the cell's own recorded spec —
 * recomputed from the store alone, which is the point: a populated
 * store answers "is this design point settled?" without replaying a
 * single live point.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/library_set.hh"
#include "store/result_store.hh"
#include "util/log.hh"

using namespace lp;

namespace
{

std::string
libLabel(const std::unordered_map<std::uint64_t, std::string> &names,
         std::uint64_t hash)
{
    auto it = names.find(hash);
    if (it != names.end())
        return it->second;
    return strfmt("lib-%016llx", static_cast<unsigned long long>(hash));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string storePath, setDir, workload, configHex;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc)
                panic("flag %s needs a value", a.c_str());
            return argv[++i];
        };
        if (a == "--set")
            setDir = need();
        else if (a == "--workload")
            workload = need();
        else if (a == "--config")
            configHex = need();
        else if (a == "--json")
            json = true;
        else if (!a.empty() && a[0] == '-')
            panic("unknown flag '%s'", a.c_str());
        else if (storePath.empty())
            storePath = a;
        else
            panic("unexpected argument '%s'", a.c_str());
    }
    if (storePath.empty()) {
        std::fprintf(stderr,
                     "usage: inspect_results <store.lpres> [--set dir] "
                     "[--workload w] [--config hex] [--json]\n");
        return 2;
    }

    try {
        // load, not open: a missing store is an error here, not an
        // empty table.
        ResultStore store;
        store.load(storePath);

        std::unordered_map<std::uint64_t, std::string> names;
        if (!setDir.empty()) {
            const LibrarySet set = LibrarySet::openRecover(setDir);
            for (std::size_t i = 0; i < set.size(); ++i)
                names.emplace(set.contentHash(i), set.name(i));
        }

        // Resolve the workload filter: a shard name through --set,
        // else a literal hex content hash.
        StoreQuery q;
        if (!workload.empty()) {
            for (const auto &kv : names) {
                if (kv.second == workload) {
                    q.libHash = kv.first;
                    break;
                }
            }
            if (q.libHash == 0)
                parseHexDigest(workload, &q.libHash);
            if (q.libHash == 0)
                throw std::runtime_error(
                    strfmt("workload '%s' matches no shard and is not "
                           "a hex hash",
                           workload.c_str()));
        }
        if (!configHex.empty() &&
            !parseHexDigest(configHex, &q.configDigest))
            throw std::runtime_error(
                strfmt("--config '%s' is not a hex config digest",
                       configHex.c_str()));

        if (json) {
            std::fputs(storeQueryJson(store, q, names).c_str(), stdout);
            return 0;
        }

        std::size_t nCells = 0, nPairs = 0;
        std::printf("%-20s %-16s %9s %9s %12s %9s %s\n", "workload",
                    "config", "points", "folded", "cpi", "rel-hw",
                    "state");
        for (const CellRecord &c : store.cells()) {
            if (!q.matches(c))
                continue;
            std::printf("%-20s %-16llx %9llu %9llu %12.6f %8.4f%% %s\n",
                        libLabel(names, c.key.libHash).c_str(),
                        static_cast<unsigned long long>(c.key.configDigest),
                        static_cast<unsigned long long>(c.libPoints),
                        static_cast<unsigned long long>(c.processed),
                        bitsFromDouble(c.cpiBits),
                        recordedRelHalfWidth(c) * 100.0,
                        c.converged ? "converged" : "complete");
            ++nCells;
        }

        std::printf("\n%-20s %-16s %-16s %9s %14s\n", "workload", "base",
                    "test", "pairs", "mean-delta");
        for (const PairRecord &p : store.pairs()) {
            if (!q.matches(p))
                continue;
            const RunningStat delta = RunningStat::fromState(p.delta);
            std::printf("%-20s %-16llx %-16llx %9llu %14.6g\n",
                        libLabel(names, p.key.base.libHash).c_str(),
                        static_cast<unsigned long long>(
                            p.key.base.configDigest),
                        static_cast<unsigned long long>(p.key.testDigest),
                        static_cast<unsigned long long>(delta.count()),
                        delta.count() ? delta.mean() : 0.0);
            ++nPairs;
        }

        std::printf("\n%zu cells, %zu pairs\n", nCells, nPairs);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "inspect_results: %s\n", e.what());
        return 1;
    }
}
