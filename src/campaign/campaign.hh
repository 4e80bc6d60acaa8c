/**
 * @file
 * The campaign runner: many independent training simulations,
 * executed on a host thread pool, with structured results.
 *
 * The paper's contribution is a measurement grid (5 networks x
 * {1,2,4,8} GPUs x {P2P, NCCL}); a campaign is exactly such a grid.
 * Each simulation is a pure single-threaded function of its
 * TrainConfig (the determinism contract of core/determinism.hh), so
 * fanning configurations out across threads cannot change any
 * result — only the wall-clock time to produce them. Results come
 * back in grid order regardless of --jobs, which makes the JSON/CSV
 * output byte-identical at any parallelism and lets a golden
 * baseline be a plain committed file.
 *
 * cachedSimulate() memoizes reports process-wide (thread-safe), so
 * the sweep/check commands and the benchmark harnesses never pay for
 * the same configuration twice.
 */

#ifndef DGXSIM_CAMPAIGN_CAMPAIGN_HH
#define DGXSIM_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/record.hh"
#include "core/axes.hh"

namespace dgxsim::campaign {

/**
 * A grid of training configurations (the paper's sweep axes). Every
 * grid axis of the table in core/axes.cc is swept over the values
 * listed under its name, else its grid default (gpus 1,2,4,8; batch
 * 16,32,64; method p2p,nccl), else the base value alone.
 */
struct CampaignSpec
{
    /** Swept values per grid axis name, e.g. {"gpus", {"1", "2"}}. */
    core::AxisValues values;
    /** Template for every knob the grid does not sweep. */
    core::TrainConfig base;

    /**
     * @return the grid expanded in deterministic order: axes nest by
     * grid rank — platform, nodes, interconnect, net algo, mode,
     * model, gpus, batch, microbatches, method, scheduler,
     * compressor — with the table's collapse rules pinning an axis
     * that cannot matter in a cell (e.g. method in non-sync modes)
     * and dropping cells the substrate cannot run. Fatal when a
     * listed value does not parse or a cell fails
     * TrainConfig::validate().
     */
    std::vector<core::TrainConfig> expand() const;
};

/**
 * Simulate @p cfg through a process-wide thread-safe memo cache.
 * Repeated calls with an equivalent configuration return the stored
 * report without re-running. The reference stays valid until the
 * next clearSimulationCache() or trimSimulationCache() eviction —
 * copy the report before either can run if it must outlive them.
 */
const core::TrainReport &cachedSimulate(const core::TrainConfig &cfg);

/** Observable state of the simulate memo cache. */
struct SimulationCacheStats
{
    std::size_t entries = 0; ///< reports currently held
    std::size_t limit = 0;   ///< trim threshold; 0 = unbounded
    std::uint64_t hits = 0;  ///< lookups served from the cache
    std::uint64_t misses = 0; ///< simulations performed
};

/** @return a snapshot of the simulate cache counters (thread-safe). */
SimulationCacheStats simulationCacheStats();

/**
 * Drop every cached report (and the per-layer cost tables) and reset
 * the hit/miss counters. References previously returned by
 * cachedSimulate() are invalidated.
 */
void clearSimulationCache();

/**
 * Cap the cache at @p max_entries reports; 0 (the default) keeps it
 * unbounded. The cap takes effect at the next trimSimulationCache()
 * — lookups never evict, so references stay stable within a grid.
 */
void setSimulationCacheLimit(std::size_t max_entries);

/**
 * Evict oldest-inserted reports until the cache is within its limit.
 * runCampaign() calls this between grids; a no-op when unbounded.
 */
void trimSimulationCache();

/**
 * @return a cache/identity key covering every member of the config,
 * its GpuSpec, CommConfig and MemoryModel (core::visitFields):
 * configs with equal keys are identical.
 */
std::string configKey(const core::TrainConfig &cfg);

/** Progress callback: (completed so far, total, finished record).
 * Called from worker threads under a lock, in completion order. */
using ProgressFn =
    std::function<void(std::size_t, std::size_t, const RunRecord &)>;

/**
 * Run every configuration in @p configs on up to @p jobs threads and
 * return one RunRecord per configuration, in input order (the order
 * never depends on jobs or scheduling). OOM configurations produce a
 * record with oom=true rather than failing the campaign.
 */
std::vector<RunRecord>
runCampaign(const std::vector<core::TrainConfig> &configs, int jobs,
            const ProgressFn &progress = nullptr);

} // namespace dgxsim::campaign

#endif // DGXSIM_CAMPAIGN_CAMPAIGN_HH
