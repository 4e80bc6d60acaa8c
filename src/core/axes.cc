#include "core/axes.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <type_traits>

#include "comm/compression.hh"
#include "comm/scheduler.hh"
#include "core/text_table.hh"
#include "dnn/models.hh"
#include "hw/cluster.hh"
#include "hw/platform.hh"
#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::core {

namespace {

std::string
fmtNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** @return true when @p v lies in the axis range; NaN never does. */
bool
inRange(const Axis &a, double v)
{
    return (a.loOpen ? v > a.lo : v >= a.lo) && v <= a.hi;
}

[[noreturn]] void
outOfRange(const Axis &a, const std::string &shown)
{
    sim::fatal("--", a.name, " ", shown, " is out of range ",
               a.loOpen ? "(" : "[", fmtNumber(a.lo), ", ",
               fmtNumber(a.hi), "]");
}

// --- codecs: how one value type parses, formats and validates ------

/** Values a record stores as they are; no extra validation. */
struct Plain
{
    static const auto &toRow(const auto &v) { return v; }
    static const auto &fromRow(const auto &v) { return v; }
    static void validate(const Axis &, const auto &) {}
};

/** An integer or floating-point knob; Bytes also takes a k/m/g suffix
 * (powers of 1024). */
template <typename T, bool Bytes = false>
struct Number : Plain
{
    static T
    parse(const Axis &a, const std::string &text)
    {
        const char *s = text.c_str();
        char *end = nullptr;
        errno = 0;
        double v = std::is_floating_point_v<T>
                       ? std::strtod(s, &end)
                       : static_cast<double>(std::strtoll(s, &end, 10));
        if (errno == ERANGE)
            v = NAN;
        const char unit = Bytes && end != s ? *end | 0x20 : 0;
        const int shift = unit == 'k' ? 10 : unit == 'm' ? 20
                          : unit == 'g' ? 30 : 0;
        end += shift != 0;
        if (end == s || *end != '\0') {
            sim::fatal("--", a.name, " expects ",
                       Bytes ? "a byte count (optionally with a k/m/g "
                               "suffix)"
                       : std::is_floating_point_v<T> ? "a number"
                                                     : "an integer",
                       ", got '", text, "'");
        }
        v = std::ldexp(v, shift);
        if (!inRange(a, v))
            outOfRange(a, text);
        return static_cast<T>(v);
    }
    static std::string format(T v) { return fmtNumber(v); }
    static void
    validate(const Axis &a, T v)
    {
        if (!inRange(a, static_cast<double>(v)))
            outOfRange(a, format(v));
    }
};

/** A registry name; Known, when set, rejects unregistered names. */
template <bool (*Known)(const std::string &)>
struct Name : Plain
{
    static std::string
    parse(const Axis &a, const std::string &text)
    {
        validate(a, text);
        return text;
    }
    static std::string format(const std::string &v) { return v; }
    static void
    validate(const Axis &a, const std::string &v)
    {
        if (Known != nullptr && !Known(v)) {
            sim::fatal("unknown --", a.name, " '", v, "'",
                       sim::didYouMean(v, a.names()),
                       " (run `dgxprof list ", a.registry, "`)");
        }
    }
};

/** An enum spelled by its canonical name (Parse fatals on others). */
template <auto Parse, auto Spell>
struct Enum : Plain
{
    static auto parse(const Axis &, const std::string &t) { return Parse(t); }
    static std::string format(auto v) { return Spell(v); }
    static std::string toRow(auto v) { return Spell(v); }
    static auto fromRow(const std::string &v) { return Parse(v); }
};

/** A switch: giving the option sets the member to Value(). */
template <auto Value>
struct Switch : Plain
{
    static auto parse(const Axis &, const std::string &) { return Value(); }
    static std::string
    format(const auto &v)
    {
        return v == Value() ? "on" : "off";
    }
};

constexpr auto on = [] { return true; };

/**
 * An axis bound to the TrainConfig member reached through @p Path
 * (e.g. &TrainConfig::commConfig, &comm::CommConfig::scheduler) and,
 * when recorded, to the AxisRow member @p Row.
 */
template <typename Codec, auto Row, auto... Path>
class Knob final : public Axis
{
    static constexpr bool kRecorded =
        !std::is_same_v<decltype(Row), std::nullptr_t>;
    static auto &at(TrainConfig &c) { return (c .* ... .* Path); }
    static auto &at(const TrainConfig &c) { return (c .* ... .* Path); }

    static RowField
    rowField()
    {
        if constexpr (kRecorded)
            return Row;
        else
            return {};
    }

  public:
    explicit Knob(const AxisSpec &spec) : Axis(spec, rowField()) {}

    void
    parse(TrainConfig &cfg, const std::string &text) const override
    {
        at(cfg) = Codec::parse(*this, text);
    }
    std::string
    format(const TrainConfig &cfg) const override
    {
        return Codec::format(at(cfg));
    }
    void
    validate(const TrainConfig &cfg) const override
    {
        Codec::validate(*this, at(cfg));
    }
    void
    store(const TrainConfig &cfg, AxisRow &row) const override
    {
        if constexpr (kRecorded)
            row.*Row = Codec::toRow(at(cfg));
    }
    void
    load(const AxisRow &row, TrainConfig &cfg) const override
    {
        if constexpr (kRecorded)
            at(cfg) = Codec::fromRow(row.*Row);
    }
};

// --- rules ----------------------------------------------------------

/** Emit rule: carried only when member @p M (the axis itself, or the
 * axis it belongs with) is off its default. */
template <auto M>
bool
offDefault(const AxisRow &r)
{
    static const AxisRow kDefault;
    return r.*M != kDefault.*M;
}

/** Emit rule of the pipeline depth: staged modes only, and off its
 * historical default (== gpus, which every older staged record ran). */
bool
depthOffDefault(const AxisRow &r)
{
    return isStaged(parseParallelismMode(r.mode)) && r.microbatches > 0 &&
           r.microbatches != r.gpus;
}

/** Collectives (method, scheduler, compressor) exist only in sync
 * mode; the other strategies always use the P2P fabric path. */
constexpr auto syncMode = [](const TrainConfig &c) {
    return c.mode == ParallelismMode::SyncDp;
};
constexpr auto multiNode = [](const TrainConfig &c) { return c.nodes > 1; };

/** @return the GPU count of platform @p name, 0 when unknown. */
int
platformGpus(const std::string &name)
{
    static const std::map<std::string, int> counts = [] {
        std::map<std::string, int> m;
        for (const std::string &p : hw::platformNames())
            m[p] = hw::makePlatform(p).topology.numGpus();
        return m;
    }();
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
}

// --- registry listings ----------------------------------------------

std::string
listModels()
{
    TextTable table({"name", "params (M)", "fwd GFLOPs/img", "layers"});
    for (const std::string &name : dnn::extendedModelNames()) {
        dnn::Network net = dnn::buildByName(name);
        table.addRow({name, TextTable::num(net.paramCount() / 1e6, 2),
                      TextTable::num(net.forwardFlops(1) / 1e9, 2),
                      std::to_string(net.layers().size())});
    }
    return table.str();
}

std::string
listPlatforms()
{
    TextTable table({"name", "gpus", "gpu", "description"});
    for (const std::string &name : hw::platformNames()) {
        const hw::Platform plat = hw::makePlatform(name);
        table.addRow({plat.name, std::to_string(plat.topology.numGpus()),
                      plat.gpuSpec.name, plat.description});
    }
    return table.str();
}

std::string
listInterconnects()
{
    TextTable table({"name", "GB/s per dir", "latency (us)",
                     "description"});
    for (const std::string &name : hw::interconnectNames()) {
        const hw::Interconnect ic = hw::makeInterconnect(name);
        table.addRow({ic.name, TextTable::num(ic.gbpsPerDir, 1),
                      TextTable::num(ic.latencyUs, 1), ic.description});
    }
    return table.str();
}

std::string
listSchedulers()
{
    TextTable table({"name", "description"});
    for (const comm::SchedulerInfo &info : comm::schedulerRegistry())
        table.addRow({info.name, info.description});
    return table.str();
}

std::string
listCompressors()
{
    TextTable table({"name", "uses ratio", "description"});
    for (const comm::CompressorInfo &info : comm::compressorRegistry()) {
        table.addRow({info.name, info.usesRatio ? "yes" : "no",
                      info.description});
    }
    return table.str();
}

} // namespace

// --- the table ------------------------------------------------------

const std::vector<const Axis *> &
axes()
{
    using TC = TrainConfig;
    using CC = comm::CommConfig;
    using R = AxisRow;
    using Int = Number<int>;
    using Bytes = Number<std::uint64_t, true>;
    // Recorded axes first, in JSON order; key() writes the ones with
    // no emit rule first. Grid ranks give expand()'s nesting. The
    // table is built once and never destroyed.
    static const auto &all = *new std::vector<const Axis *>{
        new Knob<Name<nullptr>, &R::model, &TC::model>(
            {.name = "model", .json = "model", .syntax = "NAME",
             .registry = "models", .listing = listModels, .grid = 6}),
        new Knob<Int, &R::gpus, &TC::numGpus>(
            {.name = "gpus", .json = "gpus", .lo = 1, .cliDefault = "4",
             .keyPrefix = "x", .grid = 7, .gridDefault = "1,2,4,8"}),
        new Knob<Int, &R::batch, &TC::batchPerGpu>(
            {.name = "batch", .json = "batch", .lo = 1, .keyPrefix = "b",
             .grid = 8, .gridDefault = "16,32,64", .alias = "batches"}),
        new Knob<Enum<comm::parseCommMethod, comm::commMethodName>,
                 &R::method, &TC::method>(
            {.name = "method", .json = "method", .syntax = "p2p|nccl",
             .grid = 10, .gridDefault = "p2p,nccl", .applies = syncMode,
             .collapsed = "p2p"}),
        new Knob<Enum<parseParallelismMode, parallelismModeName>,
                 &R::mode, &TC::mode>(
            {.name = "mode", .json = "mode",
             .syntax = "sync_dp|async_ps|model_parallel|pipeline",
             .emit = offDefault<&R::mode>, .grid = 5,
             // Clusters run only sync_dp.
             .admits = [](const TC &c) {
                 return c.nodes == 1 || syncMode(c);
             }}),
        new Knob<Int, &R::microbatches, &TC::microbatches>(
            {.name = "microbatches", .json = "microbatches",
             .emit = depthOffDefault, .keyPrefix = "ub",
             .withOutcome = true, .grid = 9,
             .applies = [](const TC &c) { return isStaged(c.mode); }}),
        new Knob<Name<hw::isPlatform>, &R::platform, &TC::platform>(
            {.name = "platform", .json = "platform", .syntax = "NAME",
             .registry = "platforms", .names = hw::platformNames,
             .listing = listPlatforms, .emit = offDefault<&R::platform>,
             .grid = 1}),
        new Knob<Int, &R::nodes, &TC::nodes>(
            {.name = "nodes", .json = "nodes", .lo = 1,
             .emit = offDefault<&R::nodes>, .keyPrefix = "n",
             .grid = 2}),
        new Knob<Name<hw::isInterconnect>, &R::interconnect,
                 &TC::interconnect>(
            {.name = "interconnect", .json = "interconnect",
             .syntax = "NAME", .registry = "interconnects",
             .names = hw::interconnectNames,
             .listing = listInterconnects, .emit = offDefault<&R::nodes>,
             .grid = 3, .applies = multiNode}),
        new Knob<Enum<comm::parseNetAlgo, comm::netAlgoName>, &R::netAlgo,
                 &TC::netAlgo>(
            {.name = "netalgo", .json = "net_algo", .syntax = "ring|tree",
             .emit = offDefault<&R::nodes>, .grid = 4,
             .applies = multiNode}),
        new Knob<Enum<comm::parseScheduler, comm::schedulerName>,
                 &R::scheduler, &TC::commConfig, &CC::scheduler>(
            {.name = "scheduler", .json = "scheduler", .syntax = "NAME",
             .registry = "schedulers", .listing = listSchedulers,
             .emit = offDefault<&R::scheduler>, .grid = 11,
             .applies = syncMode, .collapsed = "fifo"}),
        new Knob<Bytes, &R::partitionBytes, &TC::commConfig,
                 &CC::partitionBytes>(
            {.name = "partition-bytes", .json = "partition_bytes",
             .syntax = "N[kmg]", .lo = 1, .hi = 0x1p53,
             .emit = offDefault<&R::scheduler>, .keyPrefix = "pb"}),
        new Knob<Bytes, &R::creditBytes, &TC::commConfig,
                 &CC::creditBytes>(
            {.name = "credit-bytes", .json = "credit_bytes",
             .syntax = "N[kmg]", .lo = 1, .hi = 0x1p53,
             .emit = offDefault<&R::scheduler>, .keyPrefix = "cb"}),
        new Knob<Enum<comm::parseCompressor, comm::compressorName>,
                 &R::compression, &TC::commConfig, &CC::compression>(
            {.name = "compression", .json = "compression",
             .syntax = "NAME", .registry = "compressors",
             .listing = listCompressors,
             .emit = offDefault<&R::compression>, .grid = 12,
             .applies = syncMode, .collapsed = "none"}),
        new Knob<Number<double>, &R::compressRatio, &TC::commConfig,
                 &CC::compressRatio>(
            {.name = "compress-ratio", .json = "compress_ratio",
             .syntax = "F", .lo = 0, .loOpen = true, .hi = 1,
             .emit = offDefault<&R::compression>, .keyPrefix = "r"}),
        new Knob<Number<std::uint64_t>, &R::images, &TC::datasetImages>(
            {.name = "images", .json = "images", .lo = 1,
             .keyPrefix = "i"}),
        // Knobs the records do not carry.
        new Knob<Switch<on>, nullptr, &TC::useTensorCores>(
            {.name = "tensor-cores", .syntax = ""}),
        new Knob<Switch<on>, nullptr, &TC::overlapBpWu>(
            {.name = "overlap", .syntax = ""}),
        new Knob<Switch<on>, nullptr, &TC::useAllReduce>(
            {.name = "allreduce", .syntax = ""}),
        new Knob<Number<double>, nullptr, &TC::bucketFusionMB>(
            {.name = "fusion-mb", .syntax = "F", .hi = 1e6}),
        new Knob<Switch<on>, nullptr, &TC::audit>(
            {.name = "audit", .syntax = ""}),
        new Knob<Int, nullptr, &TC::asyncItersPerWorker>(
            {.name = "async-iters", .lo = 1}),
        new Knob<Int, nullptr, &TC::commConfig, &CC::ncclRings>(
            {.name = "rings", .lo = 1, .hi = 2}),
        new Knob<Switch<hw::GpuSpec::pascalP100>, nullptr, &TC::gpuSpec>(
            {.name = "p100", .syntax = ""}),
    };
    return all;
}

const std::vector<const Axis *> &
gridAxes()
{
    static const std::vector<const Axis *> grid = [] {
        std::vector<const Axis *> out;
        std::copy_if(axes().begin(), axes().end(), std::back_inserter(out),
                     [](const Axis *a) { return a->grid; });
        std::sort(out.begin(), out.end(),
                  [](const Axis *x, const Axis *y) {
                      return x->grid < y->grid;
                  });
        return out;
    }();
    return grid;
}

const Axis &
axis(const std::string &name)
{
    std::vector<std::string> names;
    for (const Axis *a : axes()) {
        if (name == a->name)
            return *a;
        names.push_back(a->name);
    }
    sim::fatal("unknown axis '", name, "'", sim::didYouMean(name, names));
}

void
TrainConfig::validate() const
{
    for (const Axis *a : axes())
        a->validate(*this);
    // --gpus counts GPUs per node, so it must fit the platform.
    const int capacity = platformGpus(platform);
    if (numGpus > capacity) {
        sim::fatal("--gpus ", numGpus, " is out of range: platform '",
                   platform, "' has ", capacity, " GPUs");
    }
}

TrainConfig
configFromArgs(const cli::Args &args, bool grid)
{
    TrainConfig cfg;
    for (const Axis *a : axes()) {
        if (grid && a->grid)
            continue;
        if (args.has(a->name))
            a->parse(cfg, args.get(a->name));
        else if (a->cliDefault)
            a->parse(cfg, a->cliDefault);
    }
    if (!grid)
        cfg.validate();
    return cfg;
}

AxisValues
gridValuesFromArgs(const cli::Args &args)
{
    AxisValues out;
    for (const Axis *a : gridAxes()) {
        // The alias wins: --batches has always overridden --batch.
        const char *opt = a->alias && args.has(a->alias) ? a->alias
                          : args.has(a->name)            ? a->name
                                                         : nullptr;
        if (opt)
            out[a->name] = args.getList(opt, {});
    }
    return out;
}

std::string
axisUsage()
{
    std::string out = "axes (one value each; campaign and check take "
                      "comma lists of the grid axes):\n";
    for (const Axis *a : axes()) {
        std::string line = std::string("  --") + a->name + " " + a->syntax;
        line.resize(std::max<std::size_t>(line.size(), 30), ' ');
        if (a->grid)
            line += a->alias ? std::string(" grid, also --") + a->alias
                             : " grid";
        if (a->registry)
            line += std::string(" (dgxprof list ") + a->registry + ")";
        out += line.substr(0, line.find_last_not_of(' ') + 1) + "\n";
    }
    return out;
}

std::string
listRegistry(const std::string &name)
{
    std::vector<std::string> known;
    for (const Axis *a : axes()) {
        if (a->registry && name == a->registry)
            return a->listing();
        if (a->registry)
            known.push_back(a->registry);
    }
    sim::fatal("unknown registry '", name, "'",
               sim::didYouMean(name, known), " (run `dgxprof help`)");
}

} // namespace dgxsim::core
