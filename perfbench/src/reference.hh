/**
 * @file
 * Output checks. The service's grid reports are checked for shape
 * (twelve healthy cells, memoized or not as expected) and against an
 * in-process CampaignEngine run of the same grid; the fleet is checked
 * against SMARTS full warming, the paper's zero-bias reference. The
 * timing model itself is unvalidated against hardware, so no error
 * figure is reported, only exactness against these references.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <string>
#include <vector>

#include "common.hh"
#include "core/campaign.hh"
#include "core/library_set.hh"

namespace pb
{

/**
 * Check a campaign report of one grid and return its per-cell
 * cpi_bits (workload-major). On a violation @p why is set. With
 * @p memoized, every cell must come from the result store and the
 * job must have decoded and replayed nothing.
 */
std::vector<std::string> checkGridReport(const std::string &json,
                                         bool memoized, std::string *why);

/** The grid's rows over the fleet set, in fleetShards() order. */
std::vector<lp::CampaignWorkload> gridWorkloads(const lp::LibrarySet &set,
                                                const FleetInputs &in);

std::vector<lp::CoreConfig> gridCoreConfigs();

/** The CampaignOptions the daemon derives from gridSpec(@p seed). */
lp::CampaignOptions gridOptions(std::uint64_t seed, unsigned threads,
                                unsigned decodeThreads);

struct ReferenceGrid
{
    std::vector<std::string> bits;
    double folded = 0.0;
};

/** Run gridSpec(@p seed) in process (bit-identical at any thread count). */
ReferenceGrid referenceGrid(const lp::LibrarySet &set,
                            const FleetInputs &in, std::uint64_t seed);

/**
 * The smoke cell: eon-2 under `eight`, every live-point replayed,
 * against runSmarts over the same sample design. Equal to 1e-9
 * relative (the fold order differs, the observations do not).
 */
bool smokeMatchesSmarts(const lp::LibrarySet &set, const FleetInputs &in,
                        std::string *message);

/** "%016llx" of the IEEE-754 bits of @p v, as reports print cpi_bits. */
std::string hexBits(double v);

} // namespace pb

#endif // PERFBENCH_REFERENCE_HH
