/**
 * @file
 * The machine-readable result of one simulated training run.
 *
 * A RunRecord is the flattened, serializable projection of a
 * core::TrainReport: the configuration axes the paper sweeps (model,
 * GPU count, per-GPU batch, communication method, dataset size) plus
 * every quantity a regression gate needs to defend — epoch and
 * iteration time, the FP+BP/WU breakdown, sync-API share, inter-GPU
 * traffic, peak memory, and the determinism digest.
 *
 * Records serialize to JSON (results/baseline.json is an array of
 * them) and CSV. Serialization is deterministic: the same records
 * always produce byte-identical text, so a campaign run at --jobs 8
 * emits the same file as --jobs 1 and a golden baseline can be
 * diffed textually.
 */

#ifndef DGXSIM_CAMPAIGN_RECORD_HH
#define DGXSIM_CAMPAIGN_RECORD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/axes.hh"
#include "core/report.hh"

namespace dgxsim::campaign {

/**
 * Flattened, serializable result of one training simulation: the
 * recorded configuration axes (core::AxisRow, one member per record
 * row of the axis table in core/axes.cc) plus the outcome. key(),
 * JSON and CSV carry an axis per the table's emit rule: an axis
 * added after the first baselines is written only off its default,
 * so older baselines stay byte-identical.
 */
struct RunRecord : core::AxisRow
{
    // --- outcome ---
    bool oom = false;
    std::uint64_t iterations = 0;
    double epochSeconds = 0;
    double iterationSeconds = 0;
    double setupSeconds = 0;
    double fpBpSeconds = 0;
    double wuSeconds = 0;
    double syncApiFraction = 0;
    double interGpuBytesPerIter = 0;
    /** Bytes over inter-node IB links per iteration (nodes > 1). */
    double interNodeBytesPerIter = 0;
    /** Peak training-time allocation on the root GPU (bytes). */
    std::uint64_t gpu0TrainingBytes = 0;
    /** Peak training-time allocation on a worker GPU (bytes). */
    std::uint64_t gpuxTrainingBytes = 0;
    /** Pre-training (model resident) allocation (bytes). */
    std::uint64_t preTrainingBytes = 0;
    /** Order-sensitive event-stream digest (determinism contract). */
    std::uint64_t digest = 0;

    // --- async_ps-only metrics (serialized only for that mode) ---
    double throughputImagesPerSec = 0;
    double avgStaleness = 0;
    int maxStaleness = 0;

    // --- staged-mode metrics (serialized only for those modes, with
    // the microbatches axis) ---
    double bubbleFraction = 0;

    // --- critical-path analysis (analysis::Dag), attached only when
    // analysis was requested so plain campaign baselines stay
    // byte-identical ---
    bool hasAnalysis = false;
    /** Critical-path attribution of the measured window (seconds);
     * the four categories sum to the window makespan. */
    double cpComputeSeconds = 0;
    double cpCommSeconds = 0;
    /** Inter-node share of the critical path; serialized only when
     * nodes > 1 (always 0 on a single node). */
    double cpInterNodeCommSeconds = 0;
    double cpApiSeconds = 0;
    double cpIdleSeconds = 0;

    /**
     * @return "model xGPUS bBATCH method iIMAGES" plus every emitted
     * optional axis — the identity of the configuration, used to
     * match baseline and fresh records.
     */
    std::string key() const;

    /** @return the TrainConfig that reproduces this run (defaults for
     * every knob the record does not carry). */
    core::TrainConfig toConfig() const;

    bool operator==(const RunRecord &other) const = default;
};

/** @return the record projection of @p report. */
RunRecord recordFromReport(const core::TrainReport &report);

/**
 * @return the records as a JSON document:
 * {"version": 1, "records": [...]}. Deterministic byte-for-byte;
 * doubles use %.17g so parsing round-trips exactly.
 */
std::string recordsToJson(const std::vector<RunRecord> &records);

/**
 * Parse a document produced by recordsToJson (or a hand-edited
 * baseline). Throws sim::FatalError on malformed input or an
 * unsupported version.
 */
std::vector<RunRecord> recordsFromJson(const std::string &text);

/** @return the records as CSV with a header row: every recorded axis,
 * then the outcome. Deterministic. */
std::string recordsToCsv(const std::vector<RunRecord> &records);

/** Write @p text to @p path (fatal on I/O failure). */
void writeFile(const std::string &path, const std::string &text);

/** Read the whole of @p path (fatal on I/O failure). */
std::string readFile(const std::string &path);

} // namespace dgxsim::campaign

#endif // DGXSIM_CAMPAIGN_RECORD_HH
