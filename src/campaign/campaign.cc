#include "campaign/campaign.hh"

#include <deque>
#include <map>
#include <mutex>
#include <type_traits>
#include <vector>

#include "campaign/thread_pool.hh"
#include "core/layer_costs.hh"
#include "core/trainer_base.hh"
#include "sim/logging.hh"

namespace dgxsim::campaign {

std::vector<core::TrainConfig>
CampaignSpec::expand() const
{
    // Every listed value must parse before anything runs, so a typo
    // fails here rather than mid-campaign on a worker thread.
    for (const auto &[name, list] : values) {
        const core::Axis &a = core::axis(name);
        if (!a.grid)
            sim::fatal("--", name, " is not a grid axis");
        for (const std::string &v : list) {
            core::TrainConfig probe = base;
            a.parse(probe, v);
        }
    }
    const std::vector<const core::Axis *> &grid = core::gridAxes();
    std::vector<core::TrainConfig> configs;
    const auto fill = [&](const auto &self, std::size_t level,
                          const core::TrainConfig &cell) -> void {
        if (level == grid.size()) {
            cell.validate();
            configs.push_back(cell);
            return;
        }
        const core::Axis &a = *grid[level];
        if (a.applies && !a.applies(cell)) {
            // The axis cannot matter in this cell: a single column.
            core::TrainConfig pinned = cell;
            if (a.collapsed)
                a.parse(pinned, a.collapsed);
            self(self, level + 1, pinned);
            return;
        }
        const auto listed = values.find(a.name);
        for (const std::string &v :
             listed != values.end() ? listed->second
             : a.gridDefault        ? core::cli::splitList(a.gridDefault)
                                    : std::vector{a.format(base)}) {
            core::TrainConfig next = cell;
            a.parse(next, v);
            if (!a.admits || a.admits(next))
                self(self, level + 1, next);
        }
    };
    fill(fill, 0, base);
    return configs;
}

std::string
configKey(const core::TrainConfig &cfg)
{
    // Raw bytes of every member; strings carry their length, so no
    // two configs share a key unless every member is equal.
    std::string key;
    key.reserve(512);
    core::visitFields(cfg, [&key](const auto &v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     std::string>) {
            const std::size_t n = v.size();
            key.append(reinterpret_cast<const char *>(&n), sizeof n);
            key += v;
        } else {
            key.append(reinterpret_cast<const char *>(&v), sizeof v);
        }
    });
    return key;
}

namespace {

/** The process-wide simulate memo cache and its bookkeeping. */
struct SimCache
{
    std::mutex mutex;
    std::map<std::string, core::TrainReport> entries;
    /** Keys in insertion order; trim evicts from the front (FIFO). */
    std::deque<std::string> order;
    std::size_t limit = 0; ///< 0 = unbounded
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

SimCache &
simCache()
{
    static SimCache cache;
    return cache;
}

} // namespace

const core::TrainReport &
cachedSimulate(const core::TrainConfig &cfg)
{
    SimCache &c = simCache();
    const std::string key = configKey(cfg);
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        auto it = c.entries.find(key);
        if (it != c.entries.end()) {
            ++c.hits;
            return it->second;
        }
        ++c.misses;
    }
    // Simulate outside the lock so independent configurations run
    // concurrently. Two threads racing on the same key compute the
    // same (deterministic) report; the second insert is a no-op.
    core::TrainReport report = core::TrainerBase::simulate(cfg);
    std::lock_guard<std::mutex> lock(c.mutex);
    auto [it, inserted] = c.entries.emplace(key, std::move(report));
    if (inserted)
        c.order.push_back(key);
    return it->second;
}

void
clearSimulationCache()
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.clear();
    c.order.clear();
    c.hits = 0;
    c.misses = 0;
    core::clearLayerCostCache();
}

void
setSimulationCacheLimit(std::size_t max_entries)
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.limit = max_entries;
}

void
trimSimulationCache()
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    if (c.limit == 0)
        return;
    while (c.entries.size() > c.limit && !c.order.empty()) {
        c.entries.erase(c.order.front());
        c.order.pop_front();
    }
}

SimulationCacheStats
simulationCacheStats()
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    return SimulationCacheStats{c.entries.size(), c.limit, c.hits,
                                c.misses};
}

std::vector<RunRecord>
runCampaign(const std::vector<core::TrainConfig> &configs, int jobs,
            const ProgressFn &progress)
{
    std::vector<RunRecord> records(configs.size());
    std::mutex progressMutex;
    std::size_t completed = 0;
    parallelFor(configs.size(), jobs, [&](std::size_t i) {
        // Each index writes only its own slot: record order is the
        // config order, never the completion order.
        records[i] = recordFromReport(cachedSimulate(configs[i]));
        if (progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            progress(++completed, configs.size(), records[i]);
        }
    });
    // Between grids is the natural eviction point: every record has
    // been copied out, and with the default unbounded limit this is a
    // no-op, so single-grid behavior is unchanged.
    trimSimulationCache();
    return records;
}

} // namespace dgxsim::campaign
