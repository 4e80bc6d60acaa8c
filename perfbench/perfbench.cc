/**
 * @file
 * The dgxsim simulator benchmark: what does the simulator itself
 * cost to run, end to end and layer by layer?
 *
 * One process runs one workload as a closed loop: a single caller
 * issues one op at a time on one thread and waits for it. Every op
 * is timed from outside and its output is checked against a
 * reference: a golden results/baseline*.json record (zero tolerance,
 * digest included) or a hash pinned in perfbench/pins.tsv. The seed
 * only permutes the order of the ops; the op set and every expected
 * output are fixed, and a per-workload signature over every op's
 * counts and outputs (pinned as well) proves it on each run.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 [--root D]
 *       Run workload W for about S seconds of whole passes over its
 *       op list and print the metrics as the last stdout line (JSON).
 *       --trace 0 runs the passes in a row of child processes of
 *       about 5 s each and times each op by its least time over all
 *       of them. --trace 1 alternates untraced passes with traced
 *       ones, which record spans around every call the benchmark
 *       makes into a dgxsim layer, and prints per-layer self times,
 *       counts and the tracing overhead.
 *   perfbench --pin [--root D]
 *       Run every workload once and rewrite perfbench/pins.tsv from
 *       the current program (only when the simulator's outputs are
 *       meant to change).
 *   perfbench --selftest [--root D]
 *       Corrupt one golden digest and one pinned hash in memory and
 *       check that exactly those ops fail; check that two seeds give
 *       identical per-op outputs in a different order.
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/advise.hh"
#include "analysis/dag.hh"
#include "analysis/what_if.hh"
#include "campaign/campaign.hh"
#include "campaign/check.hh"
#include "campaign/record.hh"
#include "core/layer_costs.hh"
#include "core/trainer_base.hh"
#include "dnn/models.hh"
#include "hw/topology.hh"
#include "sim/logging.hh"
#include "trace.hh"

namespace {

using namespace dgxsim;
using perfbench::nowNs;
using perfbench::Scope;
using perfbench::Tracer;

/** The analyze-smoke bound: a validated what-if may miss by 5%. */
constexpr double kMaxWhatIfErrorPct = 5.0;
/**
 * setup_s is the median of the set-up before the first op and of one
 * repeat after the first op that ends each kSetupEveryNs, topped up to
 * kSetupSamples at the end. Spread over the whole run, the samples see
 * the same mix of host states and heap states as the ops do.
 */
constexpr std::int64_t kSetupEveryNs = 500'000'000;
constexpr std::size_t kSetupSamples = 11;
/**
 * An untraced run is split into parts of about kPartNs (at least one
 * pass each), each run in a child process of its own, one after
 * another. How a process's pages fall in the host's caches is drawn
 * anew for every process: single-process runs of the same code spread
 * about twice as far as runs that pool the least times of three.
 */
constexpr std::int64_t kPartNs = 5'000'000'000;
const char *const kPinsFile = "perfbench/pins.tsv";
const std::vector<std::string> kWorkloads = {"grid_cold", "cluster_scale",
                                             "plan_mix"};

/** Keeps probe results observable so they cannot be optimized out. */
volatile std::uint64_t g_sink = 0;

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** SplitMix64: the seeded op order must not depend on libc. */
struct SplitMix
{
    std::uint64_t state;
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

// --- ops -----------------------------------------------------------

enum class OpKind
{
    Golden,  ///< train, compare against a golden baseline record
    Pinned,  ///< train, compare the record's JSON hash against a pin
    Analyze, ///< train, DAG, attribute, validated what-ifs
    Advise,  ///< strategy search through the campaign sim cache
};

struct Op
{
    std::string id; ///< unique within the workload, seed-independent
    OpKind kind = OpKind::Golden;
    core::TrainConfig cfg;
    campaign::RunRecord golden;                 ///< Golden only
    std::vector<analysis::WhatIfCase> whatIfs;  ///< Analyze only
    bool autoBatch = false; ///< Advise: largest fitting batch first
    std::size_t topK = 3;   ///< Advise: frontier re-simulated in full
    std::uint64_t pin = 0;  ///< expected output hash (not Golden)
};

/** Work an op did, counted from outside through public accessors. */
struct Counts
{
    std::uint64_t records = 0;
    std::uint64_t kernels = 0;
    std::uint64_t apis = 0;
    std::uint64_t copies = 0;
    std::uint64_t transfers = 0;
    std::uint64_t probes = 0; ///< advise: memory probes
    std::uint64_t projections = 0;
    std::uint64_t fullSims = 0;
};

struct OpResult
{
    bool ok = false;
    std::string why;
    std::uint64_t output = 0; ///< digest (Golden) or output hash
    Counts counts;
    bool simulated = false; ///< a trainer ran whose records we counted
    double errMaxPct = 0;   ///< Analyze: worst validated what-if error
    std::int64_t ns = 0;    ///< host time of the op
};

/**
 * What an op leaves alive for the traced run's probes. It is torn down
 * after the op's time is taken, so teardown is not timed.
 */
struct OpState
{
    std::unique_ptr<core::TrainerBase> trainer;
    std::unique_ptr<analysis::Dag> dag;
    std::unique_ptr<analysis::WhatIf> whatIf;
};

std::string
trainId(const core::TrainConfig &cfg)
{
    return cfg.model + " g" + std::to_string(cfg.numGpus) + " n" +
           std::to_string(cfg.nodes) + " b" +
           std::to_string(cfg.batchPerGpu) + " " +
           comm::commMethodName(cfg.method) +
           (cfg.netAlgo == comm::NetAlgo::Tree ? " tree" : " ring") +
           (cfg.platform != hw::kDefaultPlatform ? " @" + cfg.platform
                                                 : "");
}

/** configKey → make → run → recordFromReport → check. */
void
trainOp(const Op &op, std::int64_t id, Tracer *tr, OpState &st,
        OpResult &r)
{
    std::string key;
    {
        Scope s(tr, "campaign.key", id);
        key = campaign::configKey(op.cfg);
    }
    {
        Scope s(tr, "core.make", id);
        st.trainer = core::TrainerBase::make(op.cfg);
    }
    core::TrainReport report;
    {
        Scope s(tr, "core.run", id);
        report = st.trainer->run();
    }
    campaign::RunRecord rec;
    {
        Scope s(tr, "campaign.record", id);
        rec = campaign::recordFromReport(report);
    }
    Scope s(tr, "campaign.check", id);
    if (op.kind == OpKind::Golden) {
        r.output = rec.digest;
        const campaign::CheckReport check =
            campaign::compareRecords({op.golden}, {rec}, {});
        r.ok = check.pass;
        if (!r.ok) {
            r.why = "differs from golden record (digest " +
                    hex(rec.digest) + " vs " + hex(op.golden.digest) +
                    ", worst " + check.deltas[0].worstMetric + ")";
        }
    } else {
        r.output = fnv1a(campaign::recordsToJson({rec}));
        r.ok = r.output == op.pin;
        if (!r.ok)
            r.why = "record hash " + hex(r.output) + " != pin " +
                    hex(op.pin);
    }
    g_sink = g_sink + key.size();
}

/** simulate → Dag → attribute() → WhatIf::evaluate (validated). */
void
analyzeOp(const Op &op, std::int64_t id, Tracer *tr, OpState &st,
          OpResult &r)
{
    {
        Scope s(tr, "core.make", id);
        st.trainer = core::TrainerBase::make(op.cfg);
    }
    core::TrainReport base;
    {
        Scope s(tr, "core.run", id);
        base = st.trainer->run();
    }
    if (base.oom) {
        r.why = "OOM: " + base.oomDetail;
        return;
    }
    {
        Scope s(tr, "analysis.dag", id);
        st.dag = std::make_unique<analysis::Dag>(
            st.trainer->profiler(), st.trainer->fabric().topology());
    }
    analysis::Attribution attr;
    {
        Scope s(tr, "analysis.attribute", id);
        attr = st.dag->attribute();
    }
    st.whatIf = std::make_unique<analysis::WhatIf>(*st.dag, op.cfg, base);
    std::vector<analysis::WhatIfResult> results;
    for (const analysis::WhatIfCase &c : op.whatIfs) {
        Scope s(tr, "analysis.validate", id);
        results.push_back(st.whatIf->evaluate(c, true));
    }
    {
        Scope s(tr, "analysis.report", id);
        r.output = fnv1a(analysis::analysisJson(*st.dag, attr, results));
    }
    for (const analysis::WhatIfResult &w : results)
        r.errMaxPct = std::max(r.errMaxPct, 100.0 * w.errorFraction);
    r.ok = r.output == op.pin && r.errMaxPct <= kMaxWhatIfErrorPct;
    if (r.output != op.pin)
        r.why = "analysis hash " + hex(r.output) + " != pin " + hex(op.pin);
    else if (!r.ok)
        r.why = "what-if error " + std::to_string(r.errMaxPct) + "% > 5%";
}

/** (largest fitting batch →) adviseStrategies → adviseTable. */
void
adviseOp(const Op &op, std::int64_t id, Tracer *tr, OpResult &r)
{
    core::TrainConfig cfg = op.cfg;
    if (op.autoBatch) {
        Scope s(tr, "core.max_batch", id);
        const auto best = core::TrainerBase::maxBatchPerGpu(
            cfg, {16, 32, 64, 128, 256, 512});
        if (best)
            cfg.batchPerGpu = *best;
    }
    analysis::AdviseResult res;
    {
        Scope s(tr, "analysis.advise", id);
        analysis::AdviseOptions opts;
        opts.topK = op.topK;
        res = analysis::adviseStrategies(cfg, opts);
    }
    {
        Scope s(tr, "analysis.report", id);
        r.output = fnv1a(analysis::adviseTable(res));
    }
    r.counts.probes = res.probes;
    r.counts.projections = res.projections;
    r.counts.fullSims = res.fullSims;
    r.ok = r.output == op.pin;
    if (!r.ok)
        r.why = "advise hash " + hex(r.output) + " != pin " + hex(op.pin);
}

// --- traced-run probes ---------------------------------------------

/** Totals the probes gather outside the op spans. */
struct ProbeTotals
{
    double wireBytes = 0;
    std::uint64_t routePairs = 0;
};

/**
 * Extra calls into single layers, made after the op span closed so
 * the op's self times stay honest: one more Profiler::digest(),
 * findRoute over every GPU pair, a fresh network build and a fresh
 * layer-cost evaluation, and a what-if projection per case.
 */
void
probe(const Op &op, std::int64_t id, Tracer *tr, const OpState &st,
      ProbeTotals &totals)
{
    const core::TrainerBase &t = *st.trainer;
    {
        Scope s(tr, "profiling.digest", id);
        g_sink = g_sink ^ t.profiler().digest();
    }
    totals.wireBytes += static_cast<double>(t.profiler().copiedWireBytes());
    const hw::Topology &topo = t.fabric().topology();
    std::vector<hw::NodeId> gpus;
    for (hw::NodeId n = 0; n < topo.numNodes(); ++n) {
        if (topo.nodeKind(n) == hw::NodeKind::Gpu)
            gpus.push_back(n);
    }
    {
        Scope s(tr, "hw.route", id);
        for (hw::NodeId a : gpus) {
            for (hw::NodeId b : gpus) {
                if (a != b)
                    g_sink = g_sink + topo.findRoute(a, b).legs.size();
            }
        }
    }
    totals.routePairs += gpus.size() * (gpus.size() - 1);
    const dnn::Network net = [&] {
        Scope s(tr, "dnn.build", id);
        return dnn::buildByName(t.config().model);
    }();
    {
        Scope s(tr, "core.layer_costs", id);
        g_sink = g_sink +
                 core::computeLayerCosts(net, t.config()).weightedLayers;
    }
    if (st.whatIf) {
        for (const analysis::WhatIfCase &c : op.whatIfs) {
            Scope s(tr, "analysis.project", id);
            g_sink = g_sink +
                     static_cast<std::uint64_t>(st.whatIf->project(c.params));
        }
    }
}

/** Run one op; time it from outside; count its work afterwards. */
OpResult
execute(const Op &op, std::int64_t id, Tracer *tr, ProbeTotals *totals)
{
    OpResult r;
    OpState st;
    const std::int64_t t0 = nowNs();
    try {
        Scope s(tr, "op", id);
        switch (op.kind) {
        case OpKind::Golden:
        case OpKind::Pinned:
            trainOp(op, id, tr, st, r);
            break;
        case OpKind::Analyze:
            analyzeOp(op, id, tr, st, r);
            break;
        case OpKind::Advise:
            adviseOp(op, id, tr, r);
            break;
        }
    } catch (const std::exception &e) {
        r.ok = false;
        r.why = std::string("threw: ") + e.what();
    }
    r.ns = nowNs() - t0;
    if (st.trainer) {
        const profiling::Profiler &p = st.trainer->profiler();
        r.simulated = true;
        r.counts.records = p.recordCount();
        r.counts.kernels = p.kernels().size();
        r.counts.apis = p.apis().size();
        r.counts.copies = p.copies().size();
        r.counts.transfers = st.trainer->fabric().records().size();
        if (tr && totals && r.ok)
            probe(op, id, tr, st, *totals);
    }
    return r;
}

// --- workloads -----------------------------------------------------

/** The six single-node golden files grid_cold replays. */
const std::vector<std::string> kSingleNodeGolden = {
    "baseline",      "baseline_modes", "baseline_platforms",
    "baseline_sched", "baseline_zoo",  "baseline_pipeline"};

using Pins = std::map<std::string, std::uint64_t>;

std::string
pinKey(const std::string &workload, const std::string &id)
{
    return workload + "\t" + id;
}

Pins
loadPins(const std::string &root)
{
    Pins pins;
    std::ifstream in(root + "/" + kPinsFile);
    if (!in)
        sim::fatal("cannot read ", kPinsFile);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t tab = line.rfind('\t');
        if (tab == std::string::npos || tab == 0)
            sim::fatal("malformed pin line '", line, "'");
        pins[line.substr(0, tab)] =
            std::strtoull(line.c_str() + tab + 1, nullptr, 16);
    }
    return pins;
}

core::TrainConfig
trainConfig(const std::string &model, int gpus, int batch,
            comm::CommMethod method, int nodes = 1,
            comm::NetAlgo algo = comm::NetAlgo::Ring)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = batch;
    cfg.method = method;
    cfg.nodes = nodes;
    cfg.netAlgo = algo;
    return cfg;
}

Op
goldenOp(const std::string &stem, const campaign::RunRecord &rec)
{
    Op op;
    op.id = stem + "/" + rec.key();
    op.kind = OpKind::Golden;
    op.cfg = rec.toConfig();
    op.golden = rec;
    return op;
}

/**
 * grid_cold: one op per record of the six single-node golden files.
 * The cold single-box path: event queue, streams and host threads,
 * profiler and digest, layer costs, schedulers, compression and
 * pipeline schedules. Few GPUs and few concurrent flows, so routing
 * and the flow solver barely work.
 */
std::vector<Op>
gridColdOps(const std::map<std::string, std::vector<campaign::RunRecord>>
                &golden)
{
    std::vector<Op> ops;
    for (const std::string &stem : kSingleNodeGolden) {
        for (const campaign::RunRecord &rec : golden.at(stem))
            ops.push_back(goldenOp(stem, rec));
    }
    return ops;
}

/**
 * cluster_scale: multi-node sync_dp, the golden cluster records plus
 * an nccl grid over model x GPUs per node x nodes x net algorithm, and
 * the same grid over p2p for the two cheap models. resnet-50 and
 * bert-base stop at 4 nodes and 2 GPUs per node, and the two golden
 * resnet-50 8-node records are left out: one such op costs 0.3-2 s, a
 * third of a pass for the slowest, so its least time over the run's few
 * passes would set the figure alone. Routes between every GPU pair and
 * the flow solver's re-solve churn grow superlinearly with nodes here
 * (alexnet at 8 GPUs per node: about 14x from 2 to 8 nodes); grid_cold
 * bypasses both.
 */
std::vector<Op>
clusterOps(const std::vector<campaign::RunRecord> &golden)
{
    std::vector<Op> ops;
    std::set<std::string> goldenKeys;
    for (const campaign::RunRecord &rec : golden) {
        goldenKeys.insert(campaign::configKey(rec.toConfig()));
        if (rec.model != "resnet-50" || rec.nodes < 8)
            ops.push_back(goldenOp("baseline_cluster", rec));
    }
    const auto grid = [&](const std::string &model, comm::CommMethod m,
                          std::initializer_list<int> gpusPerNode,
                          std::initializer_list<int> nodeCounts) {
        for (int gpn : gpusPerNode) {
            for (int nodes : nodeCounts) {
                for (auto algo : {comm::NetAlgo::Ring, comm::NetAlgo::Tree}) {
                    Op op;
                    op.kind = OpKind::Pinned;
                    op.cfg = trainConfig(model, gpn, 16, m, nodes, algo);
                    op.id = "gen/" + trainId(op.cfg);
                    if (!goldenKeys.count(campaign::configKey(op.cfg)))
                        ops.push_back(std::move(op));
                }
            }
        }
    };
    for (const std::string model : {"lenet", "alexnet"}) {
        grid(model, comm::CommMethod::NCCL, {1, 2, 4, 8}, {2, 4, 8});
        grid(model, comm::CommMethod::P2P, {2, 4, 8}, {2, 4, 8});
    }
    for (const std::string model : {"resnet-50", "bert-base"})
        grid(model, comm::CommMethod::NCCL, {1, 2}, {2, 4});
    return ops;
}

/**
 * plan_mix: the interactive planning requests. analyze ops run the
 * analysis layer (DAG build, tick-exact attribution, validated what-if
 * replay); advise ops are mostly memory probes (measuredIterations=0,
 * where set-up in core.make dominates) served through the campaign
 * sim cache, which is cleared only at the start of each pass.
 */
std::vector<Op>
planMixOps()
{
    std::vector<Op> ops;
    const auto standard = analysis::standardWhatIfs();
    const auto analyze = [&](core::TrainConfig cfg) {
        Op op;
        op.kind = OpKind::Analyze;
        op.whatIfs = standard;
        if (cfg.nodes > 1)
            op.whatIfs.push_back(analysis::parseWhatIfSpecs("ib_bw=2")[0]);
        op.cfg = std::move(cfg);
        op.id = "analyze/" + trainId(op.cfg);
        ops.push_back(std::move(op));
    };
    for (const std::string model : {"lenet", "alexnet", "resnet-50"}) {
        for (int gpus : {1, 2, 4, 8}) {
            for (auto m : {comm::CommMethod::P2P, comm::CommMethod::NCCL})
                analyze(trainConfig(model, gpus, 16, m));
        }
    }
    // Two-node clusters are left out: their validated nvlink_bw=2 and
    // ib_bw=2 projections miss by 5.9-18% at this commit.
    for (const std::string model : {"lenet", "alexnet"}) {
        for (int gpn : {2, 4}) {
            for (int nodes : {3, 4})
                analyze(trainConfig(model, gpn, 16,
                                    comm::CommMethod::NCCL, nodes));
        }
    }
    const auto advise = [&](const std::string &model, int gpus, int batch,
                            const std::string &platform,
                            std::size_t top_k = 3) {
        Op op;
        op.kind = OpKind::Advise;
        op.cfg = trainConfig(model, gpus, batch > 0 ? batch : 16,
                             comm::CommMethod::NCCL);
        op.cfg.platform = platform;
        op.autoBatch = batch <= 0;
        op.topK = top_k;
        op.id = "advise/" + model + " g" + std::to_string(gpus) + " b" +
                (batch > 0 ? std::to_string(batch) : "auto") + " @" +
                platform + " top" + std::to_string(top_k);
        ops.push_back(std::move(op));
    };
    // The README's two worked examples.
    advise("bert-base", 8, 128, "pcie8");
    advise("inception-v3", 4, 0, hw::kDefaultPlatform);
    for (const std::string model :
         {"lenet", "alexnet", "googlenet", "inception-v3", "resnet-50",
          "vgg-16", "bert-base", "gpt2-small"}) {
        for (int gpus : {2, 4, 8}) {
            for (int batch : {32, 64, 128})
                advise(model, gpus, batch, hw::kDefaultPlatform);
        }
        // The same request re-asked for a wider frontier: its probes
        // and anchors overlap the top-3 search, so they are cache hits
        // when that search ran earlier in the pass.
        advise(model, 8, 64, hw::kDefaultPlatform, 5);
    }
    return ops;
}

/** What set-up produces: the op list and its pinned signature. */
struct Setup
{
    std::vector<Op> ops;
    std::uint64_t signature = 0; ///< pinned; 0 in --pin mode
};

/**
 * Parse every golden baseline file and the pins, and build the
 * workload's op list. With @p pins null (--pin mode) the expected
 * hashes stay zero.
 */
Setup
setUp(const std::string &root, const std::string &workload,
      const Pins *pins)
{
    std::map<std::string, std::vector<campaign::RunRecord>> golden;
    for (const std::string &stem : kSingleNodeGolden) {
        golden[stem] = campaign::recordsFromJson(
            campaign::readFile(root + "/results/" + stem + ".json"));
    }
    golden["baseline_cluster"] = campaign::recordsFromJson(
        campaign::readFile(root + "/results/baseline_cluster.json"));

    Setup s;
    if (workload == "grid_cold")
        s.ops = gridColdOps(golden);
    else if (workload == "cluster_scale")
        s.ops = clusterOps(golden.at("baseline_cluster"));
    else if (workload == "plan_mix")
        s.ops = planMixOps();
    else
        sim::fatal("unknown workload '", workload, "'");

    std::set<std::string> ids;
    for (Op &op : s.ops) {
        if (!ids.insert(op.id).second)
            sim::fatal("duplicate op id '", op.id, "'");
        if (!pins || op.kind == OpKind::Golden)
            continue;
        const auto it = pins->find(pinKey(workload, op.id));
        if (it == pins->end())
            sim::fatal("no pin for ", workload, " op '", op.id, "'");
        op.pin = it->second;
    }
    if (pins) {
        const auto it = pins->find(pinKey(workload, "*signature"));
        if (it == pins->end())
            sim::fatal("no signature pin for ", workload);
        s.signature = it->second;
    }
    return s;
}

// --- passes --------------------------------------------------------

/** One pass: every op once, in the seeded order, from cold caches. */
struct Pass
{
    std::int64_t firstId = 0; ///< op ids run firstId.. in `order`
    std::vector<std::size_t> order;
    std::vector<OpResult> results; ///< indexed by op, not by order
    campaign::SimulationCacheStats cache;
};

Pass
runPass(const std::vector<Op> &ops, SplitMix &rng, std::int64_t &nextId,
        Tracer *tr, ProbeTotals *totals,
        const std::function<void()> &after_op = {})
{
    Pass pass;
    pass.firstId = nextId;
    pass.order.resize(ops.size());
    std::iota(pass.order.begin(), pass.order.end(), 0);
    for (std::size_t i = ops.size(); i > 1; --i)
        std::swap(pass.order[i - 1], pass.order[rng.next() % i]);
    // Every dgxprof campaign/check process pays the cold path.
    campaign::clearSimulationCache();
    pass.results.resize(ops.size());
    for (std::size_t idx : pass.order) {
        pass.results[idx] = execute(ops[idx], nextId++, tr, totals);
        if (after_op)
            after_op();
    }
    pass.cache = campaign::simulationCacheStats();
    return pass;
}

/**
 * Seed-independent fingerprint of a pass: every op's id, counts and
 * output, folded in op-list order (not execution order).
 */
std::uint64_t
signature(const std::vector<Op> &ops, const Pass &pass)
{
    std::uint64_t h = fnv1a("perfbench-signature-v1");
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const OpResult &r = pass.results[i];
        const Counts &c = r.counts;
        std::ostringstream os;
        os << ops[i].id << '|' << r.ok << '|' << hex(r.output) << '|'
           << c.records << ',' << c.kernels << ',' << c.apis << ','
           << c.copies << ',' << c.transfers << ',' << c.probes << ','
           << c.projections << ',' << c.fullSims << '\n';
        h = fnv1a(os.str(), h);
    }
    return h;
}

/**
 * Call @p round until the next call would overrun @p budget_ns, judged
 * by the mean round so far (always at least once).
 */
template <class Round>
void
repeatWithin(std::int64_t budget_ns, Round round)
{
    const std::int64_t t0 = nowNs();
    for (std::int64_t n = 1;; ++n) {
        round();
        const std::int64_t elapsed = nowNs() - t0;
        std::fprintf(stderr, "round %lld done at %.3f s\n",
                     static_cast<long long>(n),
                     static_cast<double>(elapsed) / 1e9);
        if (elapsed + elapsed / n > budget_ns)
            return;
    }
}

double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident memory of this process and of its children. */
double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool signatureOk = true;
};

/** Count failures and check every pass's signature against the pin. */
Tally
tally(const std::string &workload, const std::vector<Op> &ops,
      const std::vector<Pass> &passes, std::uint64_t pinned)
{
    Tally t;
    std::size_t shown = 0;
    for (const Pass &p : passes) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            ++t.attempted;
            if (p.results[i].ok)
                continue;
            ++t.failed;
            if (shown++ < 20)
                std::fprintf(stderr, "FAIL %s: %s\n", ops[i].id.c_str(),
                             p.results[i].why.c_str());
        }
        const std::uint64_t sig = signature(ops, p);
        if (sig != pinned) {
            t.signatureOk = false;
            std::fprintf(stderr,
                         "FAIL %s signature %s != pinned %s: per-op "
                         "counts or outputs moved\n",
                         workload.c_str(), hex(sig).c_str(),
                         hex(pinned).c_str());
        }
    }
    return t;
}

struct Throughput
{
    double opsPerS = 0;
    double recordsPerS = 0;
    double opMsP50 = 0;
    double opMsP90 = 0;
    std::size_t samples = 0;
};

/** Each op's least host time over @p passes, in op-list order. */
std::vector<std::int64_t>
leastNs(const std::vector<Pass> &passes)
{
    std::vector<std::int64_t> least(passes.front().results.size(),
                                    INT64_MAX);
    for (const Pass &p : passes) {
        for (std::size_t i = 0; i < least.size(); ++i)
            least[i] = std::min(least[i], p.results[i].ns);
    }
    return least;
}

/** Records of one pass; every pass has the same (the signature says). */
double
passRecords(const Pass &pass)
{
    double records = 0;
    for (const OpResult &r : pass.results)
        records += static_cast<double>(r.counts.records);
    return records;
}

/**
 * Every figure is taken over each op's least host time: the op list's
 * size and one pass's @p records over their sum, and their median and
 * p90 over the op list (at least 100 ops, so the p90 has ten samples
 * beyond it). Other tenants of a shared host only ever add time; the
 * least over many passes drops their bursts, where a median over
 * passes followed the share of the run in which the host was busy.
 */
Throughput
throughput(const std::vector<std::int64_t> &least, double records,
           std::size_t samples)
{
    Throughput t;
    double ns = 0;
    std::vector<double> opMs;
    for (std::int64_t v : least) {
        ns += static_cast<double>(v);
        opMs.push_back(static_cast<double>(v) / 1e6);
    }
    t.opsPerS = static_cast<double>(least.size()) / (ns / 1e9);
    t.recordsPerS = records / (ns / 1e9);
    t.opMsP50 = median(opMs);
    t.opMsP90 = percentile(opMs, 0.9);
    t.samples = samples;
    return t;
}

// --- output --------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

std::string
resultJson(bool correct, const Tally &t, const std::vector<Metric> &ms)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        char num[40];
        const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::snprintf(num, sizeof(num), "%.10g", v);
        os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": "
           << num << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

/** Per-span-name aggregates of a traced phase. */
struct LayerStats
{
    std::map<std::string, std::int64_t> selfNs;
    std::map<std::string, std::uint64_t> calls;
    std::set<std::string> probes; ///< spans outside every op span
    std::map<std::int64_t, std::int64_t> runNsByOp; ///< core.run self
    std::int64_t opNs = 0;                          ///< all op spans
    std::size_t ops = 0;
    std::int64_t worstSumError = 0; ///< max |sum(self) - op span|

    double
    total(const std::string &name) const
    {
        const auto it = selfNs.find(name);
        return it == selfNs.end() ? 0.0 : static_cast<double>(it->second);
    }

    double
    mean(const std::string &name, double unit_ns) const
    {
        const auto c = calls.find(name);
        if (c == calls.end() || c->second == 0)
            return 0;
        return static_cast<double>(selfNs.at(name)) /
               static_cast<double>(c->second) / unit_ns;
    }
};

LayerStats
layerStats(const Tracer &tr)
{
    LayerStats ls;
    const std::vector<perfbench::Span> &spans = tr.spans();
    const std::vector<std::int64_t> self = tr.selfTimes();
    // Self time summed over each op span's subtree (spans are stored
    // in open order, so a parent always precedes its children).
    std::vector<std::int32_t> root(spans.size(), -1);
    std::map<std::int32_t, std::int64_t> treeSelf;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const perfbench::Span &s = spans[i];
        ls.selfNs[s.name] += self[i];
        ++ls.calls[s.name];
        if (std::strcmp(s.name, "core.run") == 0)
            ls.runNsByOp[s.op] += self[i];
        if (std::strcmp(s.name, "op") == 0 && s.parent < 0) {
            root[i] = static_cast<std::int32_t>(i);
            ++ls.ops;
            ls.opNs += s.end - s.start;
        } else if (s.parent >= 0) {
            root[i] = root[static_cast<std::size_t>(s.parent)];
        }
        if (root[i] >= 0)
            treeSelf[root[i]] += self[i];
        else
            ls.probes.insert(s.name);
    }
    for (const auto &[idx, sum] : treeSelf) {
        const perfbench::Span &s = spans[static_cast<std::size_t>(idx)];
        ls.worstSumError =
            std::max(ls.worstSumError, std::abs(sum - (s.end - s.start)));
    }
    return ls;
}

/** The per-layer metrics, in BENCHMARK.json order. */
std::vector<Metric>
perLayerMetrics(const std::vector<Op> &ops, const std::vector<Pass> &passes,
                const LayerStats &ls, const ProbeTotals &probes)
{
    double simOps = 0;
    Counts sum;
    double errMax = 0;
    double adviseOps = 0;
    std::map<int, double> recordsByNodes;
    std::map<int, double> runNsByNodes;
    std::map<int, double> opsByNodes;
    double runNs = 0;
    double records = 0;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const Pass &p : passes) {
        std::int64_t id = p.firstId;
        for (std::size_t idx : p.order) {
            const OpResult &r = p.results[idx];
            const Op &op = ops[idx];
            const auto run = ls.runNsByOp.find(id++);
            if (op.kind == OpKind::Advise) {
                ++adviseOps;
                sum.fullSims += r.counts.fullSims;
            }
            errMax = std::max(errMax, r.errMaxPct);
            if (!r.simulated)
                continue;
            ++simOps;
            sum.records += r.counts.records;
            sum.kernels += r.counts.kernels;
            sum.apis += r.counts.apis;
            sum.copies += r.counts.copies;
            sum.transfers += r.counts.transfers;
            const double ns =
                run == ls.runNsByOp.end() ? 0.0
                                          : static_cast<double>(run->second);
            runNs += ns;
            records += static_cast<double>(r.counts.records);
            const int nodes = op.cfg.nodes;
            runNsByNodes[nodes] += ns;
            recordsByNodes[nodes] += static_cast<double>(r.counts.records);
            opsByNodes[nodes] += 1;
        }
        hits += p.cache.hits;
        lookups += p.cache.hits + p.cache.misses;
    }
    const auto per = [](double total, double n) {
        return n > 0 ? total / n : 0.0;
    };
    std::vector<Metric> m = {
        {"core.make_ms", "ms", ls.mean("core.make", 1e6)},
        {"core.run_ms", "ms", ls.mean("core.run", 1e6)},
        {"core.ns_per_record", "ns", per(runNs, records)},
    };
    for (int nodes : {2, 4, 8}) {
        const std::string sfx = ".n" + std::to_string(nodes);
        m.push_back({"core.run_ms" + sfx, "ms",
                     per(runNsByNodes[nodes] / 1e6, opsByNodes[nodes])});
        m.push_back({"core.ns_per_record" + sfx, "ns",
                     per(runNsByNodes[nodes], recordsByNodes[nodes])});
    }
    const std::vector<Metric> rest = {
        {"core.layer_costs_us", "us", ls.mean("core.layer_costs", 1e3)},
        {"dnn.build_ms", "ms", ls.mean("dnn.build", 1e6)},
        {"profiling.digest_ms", "ms", ls.mean("profiling.digest", 1e6)},
        {"profiling.records_per_op", "count",
         per(static_cast<double>(sum.records), simOps)},
        {"cuda.kernels_per_op", "count",
         per(static_cast<double>(sum.kernels), simOps)},
        {"cuda.api_calls_per_op", "count",
         per(static_cast<double>(sum.apis), simOps)},
        {"comm.copies_per_op", "count",
         per(static_cast<double>(sum.copies), simOps)},
        {"comm.wire_mb_per_op", "MB", per(probes.wireBytes / 1e6, simOps)},
        {"hw.transfers_per_op", "count",
         per(static_cast<double>(sum.transfers), simOps)},
        {"hw.route_us", "us",
         per(ls.total("hw.route") / 1e3,
             static_cast<double>(probes.routePairs))},
        {"analysis.dag_ms", "ms", ls.mean("analysis.dag", 1e6)},
        {"analysis.attribute_ms", "ms", ls.mean("analysis.attribute", 1e6)},
        {"analysis.project_us", "us", ls.mean("analysis.project", 1e3)},
        {"analysis.validate_ms", "ms", ls.mean("analysis.validate", 1e6)},
        {"analysis.advise_ms", "ms", ls.mean("analysis.advise", 1e6)},
        {"analysis.whatif_err_max_pct", "%", errMax},
        {"analysis.advise_full_sims", "count",
         per(static_cast<double>(sum.fullSims), adviseOps)},
        {"campaign.cache_hit_frac", "ratio",
         per(static_cast<double>(hits), static_cast<double>(lookups))},
        {"campaign.key_us", "us", ls.mean("campaign.key", 1e3)},
        {"campaign.record_us", "us", ls.mean("campaign.record", 1e3)},
        {"campaign.check_us", "us", ls.mean("campaign.check", 1e3)},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

void
printLayerTable(const LayerStats &ls)
{
    std::printf("per-layer self time over %zu traced ops "
                "(op = benchmark glue between layer calls; * = probe "
                "outside the op spans):\n",
                ls.ops);
    std::printf("  %-22s %10s %12s %12s %8s\n", "span", "calls",
                "self ms", "mean us", "of ops");
    for (const auto &[name, ns] : ls.selfNs) {
        const double calls = static_cast<double>(ls.calls.at(name));
        char share[16] = "*";
        if (!ls.probes.count(name))
            std::snprintf(share, sizeof(share), "%.2f%%",
                          100.0 * static_cast<double>(ns) /
                              static_cast<double>(ls.opNs));
        std::printf("  %-22s %10.0f %12.3f %12.3f %8s\n", name.c_str(),
                    calls, static_cast<double>(ns) / 1e6,
                    static_cast<double>(ns) / calls / 1e3, share);
    }
    std::printf("self-time check: for each of %zu op spans the self times "
                "of its span tree sum to its duration (max error %lld ns)\n",
                ls.ops, static_cast<long long>(ls.worstSumError));
}

// --- modes ---------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool pin = false;
    bool selftest = false;
    std::string root = ".";
};

/** What one part of an untraced run sends back from its process. */
struct Part
{
    Tally tally;
    std::size_t passes = 0;
    double records = 0; ///< of one pass
    std::vector<std::int64_t> least;
    std::vector<double> setupS;
};

/**
 * Run @p body in a child process and return the part it measured. The
 * child is killed if this process dies first, and is waited for; a
 * child that fails or dies is fatal.
 */
Part
inChild(const std::function<Part()> &body)
{
    int fds[2];
    if (pipe(fds) != 0)
        sim::fatal("pipe: ", std::strerror(errno));
    std::fflush(nullptr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
        const int err = errno;
        close(fds[0]);
        close(fds[1]);
        sim::fatal("fork: ", std::strerror(err));
    }
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(2);
        close(fds[0]);
        int code = 2;
        try {
            const Part p = body();
            FILE *out = fdopen(fds[1], "w");
            if (!out)
                _exit(2);
            std::fprintf(out, "%" PRIu64 " %" PRIu64 " %d %zu %.17g %zu %zu\n",
                         p.tally.attempted, p.tally.failed,
                         p.tally.signatureOk ? 1 : 0, p.passes, p.records,
                         p.least.size(), p.setupS.size());
            for (std::int64_t v : p.least)
                std::fprintf(out, " %" PRId64, v);
            for (double v : p.setupS)
                std::fprintf(out, " %.17g", v);
            code = std::fclose(out) == 0 ? 0 : 2;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s\n", e.what());
        }
        std::fflush(nullptr);
        _exit(code);
    }
    close(fds[1]);
    FILE *in = fdopen(fds[0], "r");
    if (!in) {
        close(fds[0]);
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
        sim::fatal("fdopen: ", std::strerror(errno));
    }
    Part p;
    int sigOk = 0;
    std::size_t nLeast = 0;
    std::size_t nSetup = 0;
    bool ok = std::fscanf(in, "%" SCNu64 " %" SCNu64 " %d %zu %lf %zu %zu",
                          &p.tally.attempted, &p.tally.failed, &sigOk,
                          &p.passes, &p.records, &nLeast, &nSetup) == 7;
    p.tally.signatureOk = sigOk != 0;
    p.least.resize(ok ? nLeast : 0);
    p.setupS.resize(ok ? nSetup : 0);
    for (std::int64_t &v : p.least)
        ok = ok && std::fscanf(in, "%" SCNd64, &v) == 1;
    for (double &v : p.setupS)
        ok = ok && std::fscanf(in, "%lf", &v) == 1;
    std::fclose(in);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        sim::fatal("a measuring child process failed");
    return p;
}

int
benchMode(const Args &a, std::int64_t processStart)
{
    const auto setUpOnce = [&a] {
        const Pins pins = loadPins(a.root);
        return setUp(a.root, a.workload, &pins);
    };
    const Setup setup = setUpOnce();
    std::vector<double> setupS = {
        static_cast<double>(nowNs() - processStart) / 1e9};
    const auto timeSetUp = [&] {
        const std::int64_t t0 = nowNs();
        g_sink = g_sink + setUpOnce().ops.size();
        return static_cast<double>(nowNs() - t0) / 1e9;
    };
    const std::vector<Op> &ops = setup.ops;
    SplitMix rng{a.seed};
    std::int64_t nextId = 0;
    const auto budget = static_cast<std::int64_t>(a.seconds * 1e9);

    if (!a.trace) {
        Tally t;
        std::size_t passes = 0;
        double records = 0;
        std::vector<std::int64_t> least(ops.size(), INT64_MAX);
        std::size_t parts = 0;
        repeatWithin(budget, [&] {
            ++parts;
            SplitMix partRng{rng.next()};
            const Part part = inChild([&] {
                Part out;
                std::int64_t nextSetUp = nowNs() + kSetupEveryNs;
                const auto afterOp = [&] {
                    if (nowNs() < nextSetUp)
                        return;
                    out.setupS.push_back(timeSetUp());
                    nextSetUp = nowNs() + kSetupEveryNs;
                };
                std::vector<Pass> ps;
                repeatWithin(kPartNs, [&] {
                    ps.push_back(runPass(ops, partRng, nextId, nullptr,
                                         nullptr, afterOp));
                });
                out.tally = tally(a.workload, ops, ps, setup.signature);
                out.passes = ps.size();
                out.records = passRecords(ps.front());
                out.least = leastNs(ps);
                return out;
            });
            t.attempted += part.tally.attempted;
            t.failed += part.tally.failed;
            t.signatureOk = t.signatureOk && part.tally.signatureOk;
            passes += part.passes;
            records = part.records;
            for (std::size_t i = 0; i < ops.size(); ++i)
                least[i] = std::min(least[i], part.least[i]);
            setupS.insert(setupS.end(), part.setupS.begin(),
                          part.setupS.end());
        });
        while (setupS.size() < kSetupSamples)
            setupS.push_back(timeSetUp());
        const Throughput tp =
            throughput(least, records, passes * ops.size());
        std::printf("%s seed %" PRIu64 ": %zu processes, %zu passes x %zu "
                    "ops = %zu op samples, %" PRIu64 " failed, "
                    "signature %s\n",
                    a.workload.c_str(), a.seed, parts, passes, ops.size(),
                    tp.samples, t.failed,
                    t.signatureOk ? "matches pin" : "MISMATCH");
        const std::vector<Metric> ms = {
            {"ops_per_s", "1/s", tp.opsPerS},
            {"op_ms_p50", "ms", tp.opMsP50},
            {"op_ms_p90", "ms", tp.opMsP90},
            {"records_per_s", "1/s", tp.recordsPerS},
            {"setup_s", "s", median(setupS)},
            {"peak_rss_mb", "MB", peakRssMb()},
        };
        std::printf("%s\n",
                    resultJson(t.failed == 0 && t.signatureOk, t, ms)
                        .c_str());
        return 0;
    }

    // Traced run: untraced and traced passes alternate, so both sample
    // the same host conditions and their gap is the tracing overhead.
    Tracer tracer;
    ProbeTotals probes;
    std::vector<Pass> plain;
    std::vector<Pass> traced;
    repeatWithin(budget, [&] {
        plain.push_back(runPass(ops, rng, nextId, nullptr, nullptr));
        traced.push_back(runPass(ops, rng, nextId, &tracer, &probes));
    });
    std::vector<Pass> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    const Tally t = tally(a.workload, ops, all, setup.signature);

    const LayerStats ls = layerStats(tracer);
    printLayerTable(ls);
    const auto rate = [](const std::vector<Pass> &ps) {
        return throughput(leastNs(ps), passRecords(ps.front()), 0).opsPerS;
    };
    const double plainRate = rate(plain);
    const double tracedRate = rate(traced);
    std::printf("tracing overhead: untraced %.3f ops/s (%zu passes), "
                "traced %.3f ops/s (%zu passes): %+.2f%%\n",
                plainRate, plain.size(), tracedRate, traced.size(),
                100.0 * (plainRate - tracedRate) / plainRate);
    const std::vector<Metric> ms =
        perLayerMetrics(ops, traced, ls, probes);
    for (const Metric &m : ms) {
        if (m.name.rfind("core.ns_per_record", 0) == 0 ||
            m.name.rfind("core.run_ms", 0) == 0 || m.name == "hw.route_us")
            std::printf("  %-26s %14.3f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    const std::string spanPath = a.root + "/.bench_build/trace-" +
                                 a.workload + "-seed" +
                                 std::to_string(a.seed) + ".csv";
    if (tracer.writeCsv(spanPath))
        std::printf("spans written to %s\n", spanPath.c_str());
    std::printf("%s\n",
                resultJson(t.failed == 0 && t.signatureOk, t, ms).c_str());
    return 0;
}

/** One pass per workload in op-list order; rewrite the pins file. */
int
pinMode(const Args &a)
{
    std::ostringstream out;
    out << "# Expected outputs per op, pinned from the simulator with "
           "`perfbench --pin`.\n# workload\top id\tFNV-1a 64 hash "
           "(record JSON, analysisJson or adviseTable)\n";
    int bad = 0;
    for (const std::string &w : kWorkloads) {
        Setup setup = setUp(a.root, w, nullptr);
        SplitMix rng{0};
        std::int64_t nextId = 0;
        Pass pass = runPass(setup.ops, rng, nextId, nullptr, nullptr);
        for (std::size_t i = 0; i < setup.ops.size(); ++i) {
            Op &op = setup.ops[i];
            OpResult &r = pass.results[i];
            std::fprintf(stderr, "%-14s %-48s %9.2f ms err %5.2f%% %s\n",
                         w.c_str(), op.id.c_str(),
                         static_cast<double>(r.ns) / 1e6, r.errMaxPct,
                         r.why.c_str());
            if (op.kind == OpKind::Golden) {
                bad += !r.ok;
                continue;
            }
            // With no pin yet the op can only have failed on the hash;
            // an exception, an OOM or the what-if bound still counts.
            op.pin = r.output;
            if (r.why.rfind("threw", 0) == 0 || r.why.rfind("OOM", 0) == 0 ||
                r.errMaxPct > kMaxWhatIfErrorPct)
                ++bad;
            r.ok = true;
            out << w << '\t' << op.id << '\t' << hex(r.output) << '\n';
        }
        out << w << "\t*signature\t" << hex(signature(setup.ops, pass))
            << '\n';
    }
    if (bad) {
        std::fprintf(stderr, "%d ops fail independently of their pins; "
                             "pins not written\n",
                     bad);
        return 1;
    }
    campaign::writeFile(a.root + "/" + kPinsFile, out.str());
    std::printf("wrote %s\n", kPinsFile);
    return 0;
}

/** @return ids of the ops a pass reported as failed. */
std::set<std::string>
failedIds(const std::vector<Op> &ops, const Pass &p)
{
    std::set<std::string> ids;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!p.results[i].ok)
            ids.insert(ops[i].id);
    }
    return ids;
}

int
selftestMode(const Args &a)
{
    const Pins pins = loadPins(a.root);
    int problems = 0;
    const auto expect = [&problems](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        problems += !ok;
    };
    for (const std::string w : {"grid_cold", "plan_mix"}) {
        Setup setup = setUp(a.root, w, &pins);
        std::int64_t nextId = 0;

        // Seed independence: same per-op outputs, different order.
        SplitMix r1{1};
        SplitMix r2{2};
        const Pass p1 = runPass(setup.ops, r1, nextId, nullptr, nullptr);
        const Pass p2 = runPass(setup.ops, r2, nextId, nullptr, nullptr);
        expect(p1.order != p2.order, w + ": seeds 1 and 2 order ops "
                                         "differently");
        expect(signature(setup.ops, p1) == signature(setup.ops, p2) &&
                   signature(setup.ops, p1) == setup.signature,
               w + ": seeds 1 and 2 give the pinned per-op counts and "
                   "outputs");
        expect(failedIds(setup.ops, p1).empty(), w + ": no op fails");

        // Corrupt one reference in memory: exactly that op must fail.
        std::size_t victim = setup.ops.size();
        for (std::size_t i = 0; i < setup.ops.size(); ++i) {
            Op &op = setup.ops[i];
            if (w == "grid_cold" && op.kind == OpKind::Golden) {
                op.golden.digest ^= 1;
                victim = i;
                break;
            }
            if (w == "plan_mix" && op.kind == OpKind::Advise) {
                op.pin ^= 1;
                victim = i;
                break;
            }
        }
        if (victim == setup.ops.size()) {
            expect(false, w + ": found an op to corrupt");
            continue;
        }
        SplitMix r3{3};
        const Pass p3 = runPass(setup.ops, r3, nextId, nullptr, nullptr);
        const std::set<std::string> failed = failedIds(setup.ops, p3);
        expect(failed == std::set<std::string>{setup.ops[victim].id},
               w + ": corrupting '" + setup.ops[victim].id +
                   "' fails exactly that op (" +
                   std::to_string(failed.size()) + " failed)");
    }
    std::printf("selftest: %s\n", problems ? "FAILED" : "passed");
    return problems ? 1 : 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "grid_cold|cluster_scale|plan_mix --seed N --seconds S "
                 "--trace 0|1 [--root DIR]\n"
                 "       perfbench --pin|--selftest [--root DIR]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--pin") {
            a.pin = true;
            continue;
        }
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--root") {
            a.root = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0 && a.seconds <= 600))
                usage("--seconds must be in (0, 600]");
        } else if (k == "--trace") {
            a.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end && *end)
            usage(("bad number for " + k).c_str());
    }
    if (!a.pin && !a.selftest &&
        std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) ==
            kWorkloads.end())
        usage("--workload must name a workload");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t processStart = nowNs();
    const Args a = parseArgs(argc, argv);
    try {
        if (a.pin)
            return pinMode(a);
        if (a.selftest)
            return selftestMode(a);
        return benchMode(a, processStart);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
