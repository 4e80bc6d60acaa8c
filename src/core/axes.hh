/**
 * @file
 * The configuration axes: one table row (axes.cc) per TrainConfig
 * knob. Scalar CLI parsing, TrainConfig::validate(), the campaign
 * grid, RunRecord's key/JSON/CSV/toConfig, `dgxprof check` filters,
 * the axis lines of `dgxprof help` and `dgxprof list` all read the
 * rows, so adding a knob to all of them is one row.
 */

#ifndef DGXSIM_CORE_AXES_HH
#define DGXSIM_CORE_AXES_HH

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "core/cli.hh"
#include "core/train_config.hh"

namespace dgxsim::core {

/**
 * The recorded axes of a TrainConfig, flattened for serialization
 * (enums by canonical name). Defaults match TrainConfig's, so "off
 * its default" compares against AxisRow{}. RunRecord derives from it.
 */
struct AxisRow
{
    std::string model;
    int gpus = 1;
    int batch = 16;
    std::string method = "nccl";
    std::string mode = "sync_dp";
    /** Pipeline depth; records hold the depth the run used. */
    int microbatches = 0;
    std::string platform = hw::kDefaultPlatform;
    int nodes = 1;
    std::string interconnect = hw::kDefaultInterconnect;
    std::string netAlgo = "ring";
    std::string scheduler = "fifo";
    std::uint64_t partitionBytes = comm::kDefaultPartitionBytes;
    std::uint64_t creditBytes = comm::kDefaultCreditBytes;
    std::string compression = "none";
    double compressRatio = 0.01;
    std::uint64_t images = 256000;

    bool operator==(const AxisRow &) const = default;
};

/** The AxisRow member of a recorded axis (monostate: not recorded). */
using RowField =
    std::variant<std::monostate, std::string AxisRow::*, int AxisRow::*,
                 std::uint64_t AxisRow::*, double AxisRow::*>;

/** Value lists per axis name, e.g. {"gpus", {"1", "2"}}. */
using AxisValues = std::map<std::string, std::vector<std::string>>;

/** The declarative half of an axis row. */
struct AxisSpec
{
    /** CLI option without the dashes; also the filter name. */
    const char *name;
    /** Record JSON/CSV member; nullptr when not recorded. */
    const char *json = nullptr;
    /** Value syntax for usage; "" marks a switch. */
    const char *syntax = "N";
    /** `dgxprof list` name of its registry, its names, its listing. */
    const char *registry = nullptr;
    std::vector<std::string> (*names)() = nullptr;
    std::string (*listing)() = nullptr;
    /** Valid range of a number; lo is exclusive when loOpen. */
    double lo = 0;
    bool loOpen = false;
    double hi = 2147483647.0;
    /** Scalar CLI default when it differs from TrainConfig's. */
    const char *cliDefault = nullptr;
    /** When key() and JSON carry it; nullptr: always, key() first. */
    bool (*emit)(const AxisRow &) = nullptr;
    /** Prefix of the value in key(), e.g. "x" -> "x4". */
    const char *keyPrefix = "";
    /** JSON writes it with the outcome fields instead. */
    bool withOutcome = false;
    /** Grid nesting rank, 1 outermost; 0: not a grid axis. */
    int grid = 0;
    /** Values swept when a grid lists none; nullptr: the base's. */
    const char *gridDefault = nullptr;
    /** Another name for the list option (--batches). */
    const char *alias = nullptr;
    /** In a grid cell where this is false the axis collapses to
     * `collapsed` (nullptr: the base value). */
    bool (*applies)(const TrainConfig &) = nullptr;
    const char *collapsed = nullptr;
    /** A grid cell where this is false is dropped. */
    bool (*admits)(const TrainConfig &) = nullptr;
};

/** An axis row: its spec plus the typed operations on its member. */
class Axis : public AxisSpec
{
  public:
    Axis(const AxisSpec &spec, RowField field)
        : AxisSpec(spec), field(field)
    {
    }
    virtual ~Axis() = default;
    Axis(const Axis &) = delete;
    Axis &operator=(const Axis &) = delete;

    const RowField field;

    /** Set from @p text (fatal, naming the option, when invalid). */
    virtual void parse(TrainConfig &cfg, const std::string &text) const = 0;
    /** @return the value as text parse() accepts. */
    virtual std::string format(const TrainConfig &cfg) const = 0;
    /** Fatal, naming the option, when the value is invalid. */
    virtual void validate(const TrainConfig &cfg) const = 0;
    /** Copy the value into / out of a record's row. */
    virtual void store(const TrainConfig &cfg, AxisRow &row) const = 0;
    virtual void load(const AxisRow &row, TrainConfig &cfg) const = 0;

    bool emits(const AxisRow &row) const { return !emit || emit(row); }
};

/** @return every axis, recorded ones first in record (JSON) order. */
const std::vector<const Axis *> &axes();

/** @return the grid axes, outermost first. */
const std::vector<const Axis *> &gridAxes();

/** @return the axis @p name (fatal, with a suggestion, if none). */
const Axis &axis(const std::string &name);

/**
 * @return a TrainConfig from the axis options in @p args. A scalar
 * command reads every axis and validates; a grid command (@p grid)
 * skips the grid axes, sweeps them (gridValuesFromArgs) and
 * validates per cell.
 */
TrainConfig configFromArgs(const cli::Args &args, bool grid = false);

/** @return the comma lists given for grid axes in @p args. */
AxisValues gridValuesFromArgs(const cli::Args &args);

/** @return the axis lines of `dgxprof help`. */
std::string axisUsage();

/** @return registry @p name as a table (fatal, with a suggestion,
 * when there is no such registry). */
std::string listRegistry(const std::string &name);

} // namespace dgxsim::core

#endif // DGXSIM_CORE_AXES_HH
