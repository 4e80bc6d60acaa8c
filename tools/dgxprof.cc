/**
 * @file
 * dgxprof — the command-line front end of the simulator.
 *
 * Subcommands:
 *   train    simulate one training configuration, print the report
 *   analyze  critical-path attribution + validated what-if projections
 *   sweep    grid over GPUs x batch x method, print a table
 *   campaign parallel grid runner with JSON/CSV results
 *   check    re-run a campaign, diff against a golden baseline
 *   topo     show a platform's topology, routes and bandwidths
 *   list     list a registry (models, platforms, interconnects,
 *            schedulers, compressors)
 *   advise   rank parallelization strategies for a model (what-if
 *            projections first, frontier re-simulated for real)
 *   layers   per-layer cost breakdown
 *   verify   determinism check: run a config twice, compare digests
 *
 * Every configuration knob (--model, --gpus, --mode, --platform,
 * --nodes, ...) is a row of the axis table in core/axes.cc, which
 * parses it, validates it and prints its usage line; campaign and
 * check take comma lists of the grid axes.
 *
 * Run `dgxprof help` (or any subcommand with --help) for usage.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/advise.hh"
#include "analysis/dag.hh"
#include "analysis/what_if.hh"
#include "campaign/campaign.hh"
#include "campaign/check.hh"
#include "campaign/thread_pool.hh"
#include "comm/scheduler.hh"
#include "core/axes.hh"
#include "core/determinism.hh"
#include "core/layer_profile.hh"
#include "core/scaling.hh"
#include "core/text_table.hh"
#include "core/trainer.hh"
#include "core/trainer_base.hh"
#include "dnn/models.hh"
#include "dnn/serialize.hh"
#include "hw/fabric.hh"
#include "hw/platform.hh"
#include "hw/topology.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using core::TextTable;
using core::cli::Args;

int
usage()
{
    std::printf(
        "dgxprof — DNN training profiling on a simulated Volta DGX-1\n"
        "\n"
        "usage: dgxprof <command> [options]\n"
        "\n"
        "commands (train, analyze, verify, layers and advise take the "
        "axes below):\n"
        "  train     simulate one run [--model-file F] [--trace FILE] "
        "[--csv FILE]\n"
        "            [--report]\n"
        "  analyze   critical path + what-if [--what-if K=V,...|standard]"
        "\n"
        "            [--no-validate] [--max-error PCT] [--top N] "
        "[--json FILE]\n"
        "            [--record FILE] [--trace FILE] [--schedulers "
        "S1,S2,...]\n"
        "  sweep     p2p-vs-nccl table over --gpus/--batches lists "
        "[--jobs N]\n"
        "  campaign  parallel grid runner over grid axis lists [--jobs N]"
        "\n"
        "            [--json FILE] [--csv FILE] [--quiet]\n"
        "  check     regression gate --baseline FILE [--tolerance PCT] "
        "[--jobs N]\n"
        "            [--no-digest]; grid axis lists filter the baseline"
        "\n"
        "  topo      topology, routes, bandwidth matrix [--platform P]\n"
        "  list      list a registry: models|platforms|interconnects|"
        "schedulers|\n"
        "            compressors\n"
        "  advise    strategy search, what-if first, winner re-simulated"
        "\n"
        "            [--stages S1,...] [--microbatches M1,...] "
        "[--platforms P1,...]\n"
        "            [--topk K]\n"
        "  layers    per-layer cost breakdown [--model-file F] [--top N]"
        "\n"
        "  verify    determinism check: runs twice, exits non-zero when "
        "digests differ\n"
        "\n%s",
        core::axisUsage().c_str());
    return 2;
}

int
cmdTrain(const Args &args)
{
    core::TrainConfig cfg = core::configFromArgs(args);
    // --model-file loads a serialized network description instead of
    // a zoo model (see dnn/serialize.hh for the format). Custom
    // networks run only on the synchronous strategy.
    std::unique_ptr<core::TrainerBase> owned;
    if (args.has("model-file")) {
        if (cfg.mode != core::ParallelismMode::SyncDp)
            sim::fatal("--model-file supports --mode sync_dp only");
        dnn::Network net =
            dnn::loadNetworkFile(args.get("model-file"));
        cfg.model = net.name();
        owned = std::make_unique<core::Trainer>(cfg, std::move(net));
    } else {
        owned = core::TrainerBase::make(cfg);
    }
    core::TrainerBase &trainer = *owned;
    const core::TrainReport r = trainer.run();
    if (r.oom) {
        std::printf("OOM: %s\n", r.oomDetail.c_str());
        return 1;
    }
    std::printf("%s\n", r.oneLine().c_str());
    std::printf("  %llu iterations x %.3f ms; sync share %.1f%%; "
                "inter-GPU %.1f MB/iter\n",
                static_cast<unsigned long long>(r.iterations),
                r.iterationSeconds * 1e3, 100 * r.syncApiFraction,
                r.interGpuBytesPerIter / 1e6);
    if (core::isStaged(r.config.mode) && !r.stageParamBytes.empty()) {
        std::printf("  stage weights (MB):");
        for (sim::Bytes b : r.stageParamBytes)
            std::printf(" %.1f", b / 1e6);
        std::printf("\n");
        std::printf("  peak live microbatches per stage:");
        for (int live : r.stagePeakLiveMicrobatches)
            std::printf(" %d", live);
        std::printf("\n");
    }
    std::printf("  memory: pre %.2f GB, GPU0 %.2f GB, workers %.2f "
                "GB\n",
                r.gpu0.preTrainingGB(), r.gpu0.trainingGB(),
                r.gpux.trainingGB());
    if (r.audited) {
        std::printf("  audit: %llu checks, %llu violations; digest "
                    "%016llx\n",
                    static_cast<unsigned long long>(r.auditChecks),
                    static_cast<unsigned long long>(r.auditViolations),
                    static_cast<unsigned long long>(r.digest));
    }
    if (args.has("report"))
        std::printf("\n%s", trainer.profiler().report().c_str());
    if (args.has("trace")) {
        const std::string path = args.get("trace", "trace.json");
        trainer.profiler().writeChromeTrace(path);
        std::printf("trace written to %s\n", path.c_str());
    }
    if (args.has("csv")) {
        const std::string path = args.get("csv", "profile.csv");
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            sim::fatal("cannot open ", path);
        std::fputs(trainer.profiler().csv().c_str(), f);
        std::fclose(f);
        std::printf("profile CSV written to %s\n", path.c_str());
    }
    return 0;
}

/**
 * Run one configuration, build the causal DAG, attribute the
 * makespan, and evaluate what-if scenarios — optionally validating
 * each projection against a ground-truth re-simulation.
 */
int
cmdAnalyze(const Args &args)
{
    core::TrainConfig cfg = core::configFromArgs(args);
    auto trainer = core::TrainerBase::make(cfg);
    const core::TrainReport base = trainer->run();
    if (base.oom) {
        std::printf("OOM: %s\n", base.oomDetail.c_str());
        return 1;
    }

    // The DAG reads routes off the topology the run actually used
    // (whatever platform cfg selected).
    const hw::Topology &topo = trainer->fabric().topology();
    const analysis::Dag dag(trainer->profiler(), topo);
    // attribute() panics unless the four categories partition the
    // makespan tick-exactly, so reaching the report is the proof.
    const analysis::Attribution attr = dag.attribute();
    const std::size_t top =
        static_cast<std::size_t>(args.getInt("top", 10));

    std::vector<analysis::WhatIfResult> results;
    if (args.has("what-if")) {
        const analysis::WhatIf what_if(dag, cfg, base);
        const bool validate = !args.has("no-validate");
        for (const analysis::WhatIfCase &c :
             analysis::parseWhatIfSpecs(args.get("what-if", "standard")))
            results.push_back(what_if.evaluate(c, validate));
    }

    std::printf("%s\n", base.oneLine().c_str());
    std::printf("%s", dag.report(attr, top).c_str());
    if (!results.empty())
        std::printf("%s", analysis::WhatIf::report(results).c_str());

    if (args.has("schedulers")) {
        // Re-run the identical configuration under each listed
        // gradient-scheduling policy and attribute its critical path:
        // "cp comm" is the comm-exposed (non-overlapped) time, the
        // quantity a scheduler can actually shrink.
        std::printf("\ngradient scheduler comparison:\n");
        TextTable sched({"scheduler", "iteration (s)", "cp comm (s)",
                         "cp compute (s)", "cp idle (s)",
                         "comm vs fifo"});
        double fifo_comm = -1;
        for (const std::string &name :
             args.getList("schedulers", {})) {
            core::TrainConfig scfg = cfg;
            scfg.commConfig.scheduler = comm::parseScheduler(name);
            auto srun = core::TrainerBase::make(scfg);
            const core::TrainReport sr = srun->run();
            if (sr.oom) {
                sched.addRow({name, "OOM", "-", "-", "-", "-"});
                continue;
            }
            const analysis::Dag sdag(srun->profiler(),
                                     srun->fabric().topology());
            const analysis::Attribution sattr = sdag.attribute();
            const double comm_s = sim::ticksToSec(sattr.comm);
            const bool is_fifo = scfg.commConfig.scheduler ==
                                 comm::SchedulerPolicy::Fifo;
            if (is_fifo && fifo_comm < 0)
                fifo_comm = comm_s;
            std::string delta = "-";
            if (!is_fifo && fifo_comm > 0) {
                delta = TextTable::num(
                            100.0 * (comm_s - fifo_comm) / fifo_comm,
                            1) +
                        "%";
            }
            sched.addRow(
                {name, TextTable::num(sr.iterationSeconds, 6),
                 TextTable::num(comm_s, 6),
                 TextTable::num(sim::ticksToSec(sattr.compute), 6),
                 TextTable::num(sim::ticksToSec(sattr.idle), 6),
                 delta});
        }
        std::printf("%s", sched.str().c_str());
    }

    if (args.has("json")) {
        const std::string path = args.get("json", "analysis.json");
        campaign::writeFile(
            path, analysis::analysisJson(dag, attr, results, top));
        std::printf("analysis JSON written to %s\n", path.c_str());
    }
    if (args.has("record")) {
        // Campaign-record projection with the critical-path summary
        // attached; cp_* fields appear only on this path, so plain
        // campaign baselines stay byte-identical.
        const std::string path = args.get("record", "record.json");
        campaign::RunRecord rec = campaign::recordFromReport(base);
        rec.hasAnalysis = true;
        rec.cpComputeSeconds = sim::ticksToSec(attr.compute);
        rec.cpCommSeconds = sim::ticksToSec(attr.comm);
        rec.cpInterNodeCommSeconds =
            sim::ticksToSec(attr.interNodeComm);
        rec.cpApiSeconds = sim::ticksToSec(attr.api);
        rec.cpIdleSeconds = sim::ticksToSec(attr.idle);
        campaign::writeFile(path, campaign::recordsToJson({rec}));
        std::printf("run record written to %s\n", path.c_str());
    }
    if (args.has("trace")) {
        const std::string path = args.get("trace", "trace.json");
        trainer->profiler().writeChromeTrace(path);
        std::printf("trace written to %s\n", path.c_str());
    }

    // CI gate: fail when any validated projection misses the
    // re-simulated ground truth by more than --max-error percent.
    const double max_error_pct = args.getDouble("max-error", 0.0);
    if (max_error_pct > 0) {
        int failures = 0;
        for (const analysis::WhatIfResult &r : results) {
            if (r.validated &&
                100.0 * r.errorFraction > max_error_pct) {
                std::fprintf(stderr,
                             "what-if '%s': projection error %.2f%% "
                             "exceeds %.2f%%\n",
                             r.label.c_str(), 100.0 * r.errorFraction,
                             max_error_pct);
                ++failures;
            }
        }
        if (failures)
            return 1;
    }
    return 0;
}

/** Run @p configs with a stderr progress line unless --quiet. */
std::vector<campaign::RunRecord>
runWithProgress(const std::vector<core::TrainConfig> &configs,
                const Args &args)
{
    const int jobs =
        args.getInt("jobs", campaign::defaultJobs());
    campaign::ProgressFn progress;
    if (!args.has("quiet")) {
        progress = [](std::size_t done, std::size_t total,
                      const campaign::RunRecord &r) {
            std::fprintf(stderr, "[%zu/%zu] %s%s\n", done, total,
                         r.key().c_str(), r.oom ? " (OOM)" : "");
        };
    }
    return campaign::runCampaign(configs, jobs, progress);
}

int
cmdCampaign(const Args &args)
{
    // Comma lists of the grid axes over a base of every other knob.
    campaign::CampaignSpec spec{core::gridValuesFromArgs(args),
                                core::configFromArgs(args, true)};
    // Unlike sweep, an unqualified campaign covers the whole zoo
    // grid the paper measures.
    spec.values.emplace("model", dnn::modelNames());
    const auto configs = spec.expand();
    const auto records = runWithProgress(configs, args);
    TextTable table({"model", "gpus", "batch", "method", "epoch (s)",
                     "fp+bp (s)", "wu (s)", "sync %", "GPU0 GB",
                     "digest"});
    for (const auto &r : records) {
        if (r.oom) {
            table.addRow({r.model, std::to_string(r.gpus),
                          std::to_string(r.batch), r.method, "OOM",
                          "-", "-", "-", "-", "-"});
            continue;
        }
        char digest[20];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(r.digest));
        table.addRow({r.model, std::to_string(r.gpus),
                      std::to_string(r.batch), r.method,
                      TextTable::num(r.epochSeconds, 2),
                      TextTable::num(r.fpBpSeconds, 2),
                      TextTable::num(r.wuSeconds, 2),
                      TextTable::num(100 * r.syncApiFraction, 1),
                      TextTable::num(r.gpu0TrainingBytes / 1e9, 2),
                      digest});
    }
    std::printf("%s", table.str().c_str());
    if (args.has("json")) {
        const std::string path = args.get("json", "campaign.json");
        campaign::writeFile(path, campaign::recordsToJson(records));
        std::printf("results JSON written to %s\n", path.c_str());
    }
    if (args.has("csv")) {
        const std::string path = args.get("csv", "campaign.csv");
        campaign::writeFile(path, campaign::recordsToCsv(records));
        std::printf("results CSV written to %s\n", path.c_str());
    }
    return 0;
}

int
cmdCheck(const Args &args)
{
    const std::string path =
        args.get("baseline", "results/baseline.json");
    std::vector<campaign::RunRecord> baseline =
        campaign::recordsFromJson(campaign::readFile(path));
    // Optional grid filters restrict the gate to a subset of the
    // committed baseline (the CI repro-smoke job uses this).
    baseline = campaign::selectRecords(std::move(baseline),
                                       core::gridValuesFromArgs(args));
    if (baseline.empty()) {
        std::fprintf(stderr,
                     "check: no baseline records match the filter\n");
        return 1;
    }
    campaign::CheckOptions options;
    options.tolerancePct = args.getDouble("tolerance", 0.0);
    options.jobs = args.getInt("jobs", campaign::defaultJobs());
    options.skipDigest = args.has("no-digest");
    const campaign::CheckReport report =
        campaign::checkAgainstBaseline(baseline, options);
    std::printf("%s", report.summary(options.tolerancePct).c_str());
    return report.pass ? 0 : 1;
}

int
cmdSweep(const Args &args)
{
    // The sweep is a campaign over one model and both methods,
    // rendered as the classic p2p-vs-nccl table.
    // Comma lists of the grid axes over a base of every other knob.
    campaign::CampaignSpec spec{core::gridValuesFromArgs(args),
                                core::configFromArgs(args, true)};
    const core::ParallelismMode mode =
        core::parseParallelismMode(args.get("mode", "sync_dp"));
    spec.values["method"] = {"p2p", "nccl"};
    spec.values["mode"] = {core::parallelismModeName(mode)};
    const auto configs = spec.expand();
    const auto records = campaign::runCampaign(
        configs, args.getInt("jobs", campaign::defaultJobs()));
    const std::string &model = configs.front().model;
    if (mode != core::ParallelismMode::SyncDp) {
        // Non-sync strategies have no method axis: one record per
        // (gpus, batch) cell, with the strategy's own headline metric.
        const bool async = mode == core::ParallelismMode::AsyncPs;
        std::printf("sweep of %s (%s, 256K images):\n", model.c_str(),
                    core::parallelismModeName(mode));
        TextTable table({"gpus", "batch", "epoch (s)",
                         async ? "avg staleness" : "bubble %"});
        for (const campaign::RunRecord &r : records) {
            if (r.oom) {
                table.addRow({std::to_string(r.gpus),
                              std::to_string(r.batch), "OOM", "-"});
                continue;
            }
            table.addRow(
                {std::to_string(r.gpus), std::to_string(r.batch),
                 TextTable::num(r.epochSeconds, 2),
                 async ? TextTable::num(r.avgStaleness, 2)
                       : TextTable::num(100 * r.bubbleFraction, 1)});
        }
        std::printf("%s", table.str().c_str());
        return 0;
    }
    std::printf("sweep of %s (256K images):\n", model.c_str());
    TextTable table({"gpus", "batch", "p2p epoch (s)", "nccl epoch (s)",
                     "best"});
    // expand() orders method innermost: records come in (p2p, nccl)
    // pairs per (gpus, batch) cell.
    for (std::size_t i = 0; i + 1 < records.size(); i += 2) {
        const campaign::RunRecord &p2p = records[i];
        const campaign::RunRecord &nccl = records[i + 1];
        if (p2p.oom || nccl.oom) {
            table.addRow({std::to_string(p2p.gpus),
                          std::to_string(p2p.batch), "OOM", "OOM",
                          "-"});
            continue;
        }
        table.addRow(
            {std::to_string(p2p.gpus), std::to_string(p2p.batch),
             TextTable::num(p2p.epochSeconds, 2),
             TextTable::num(nccl.epochSeconds, 2),
             p2p.epochSeconds <= nccl.epochSeconds ? "p2p" : "nccl"});
    }
    std::printf("%s", table.str().c_str());
    return 0;
}

int
cmdTopo(const Args &args)
{
    const hw::Platform plat = hw::makePlatform(
        args.get("platform", hw::kDefaultPlatform));
    const hw::Topology &topo = plat.topology;
    const hw::NodeId gpus =
        static_cast<hw::NodeId>(topo.numGpus());
    std::printf("%s: %s\n", plat.name.c_str(),
                plat.description.c_str());
    TextTable table({"pair", "route", "bw (GB/s)"});
    for (hw::NodeId a = 0; a < gpus; ++a) {
        for (hw::NodeId b = a + 1; b < gpus; ++b) {
            table.addRow({"GPU" + std::to_string(a) + "-GPU" +
                              std::to_string(b),
                          hw::routeKindName(topo.findRoute(a, b).kind),
                          TextTable::num(topo.routeBandwidthGbps(a, b),
                                         0)});
        }
    }
    std::printf("%s", table.str().c_str());
    return 0;
}

int
cmdList(const Args &args)
{
    if (args.positional().empty())
        sim::fatal("usage: dgxprof list <registry>");
    std::printf("%s", core::listRegistry(args.positional().front()).c_str());
    return 0;
}

int
cmdAdvise(const Args &args)
{
    core::TrainConfig cfg = core::configFromArgs(args);
    if (!args.has("batch")) {
        // Legacy behavior: with no --batch, advise first picks the
        // largest per-GPU batch that fits the base strategy, then
        // searches strategies at that batch.
        const auto best = core::TrainerBase::maxBatchPerGpu(
            cfg, {16, 32, 64, 128, 256, 512});
        if (best) {
            cfg.batchPerGpu = *best;
            std::printf("%s on %d GPUs: largest fitting batch is %d "
                        "per GPU (%s)\n",
                        cfg.model.c_str(), cfg.numGpus, *best,
                        core::parallelismModeName(cfg.mode));
        } else {
            std::printf("%s does not fit a 16 GB V100 at any batch "
                        "size under %s; searching staged "
                        "strategies at batch %d\n",
                        cfg.model.c_str(),
                        core::parallelismModeName(cfg.mode),
                        cfg.batchPerGpu);
        }
    }

    analysis::AdviseOptions opts;
    if (args.has("mode"))
        opts.modes = {cfg.mode};
    opts.stageCounts = args.getIntList("stages", {});
    opts.microbatchCounts = args.getIntList("microbatches", {});
    opts.platforms = args.getList("platforms", {});
    opts.topK =
        static_cast<std::size_t>(args.getInt("topk", 3));

    const analysis::AdviseResult result =
        analysis::adviseStrategies(cfg, opts);
    std::printf("strategy search for %s, global batch %d "
                "(what-if-first: %zu memory probes, %zu projections, "
                "%zu full simulations):\n",
                cfg.model.c_str(), cfg.globalBatch(), result.probes,
                result.projections, result.fullSims);
    std::printf("%s", analysis::adviseTable(result).c_str());
    if (result.ranked.empty()) {
        std::printf("no strategy fits in GPU memory\n");
        return 1;
    }
    const analysis::StrategyRow &winner = result.ranked.front();
    std::printf("advice: %s — %.2fs/epoch, %.2f GB peak "
                "(validated by full re-simulation)\n",
                winner.label.c_str(), winner.epochSeconds,
                winner.memGB);
    return 0;
}

int
cmdLayers(const Args &args)
{
    core::TrainConfig cfg = core::configFromArgs(args);
    dnn::Network net = args.has("model-file")
                           ? dnn::loadNetworkFile(args.get("model-file"))
                           : dnn::buildByName(cfg.model);
    const auto summary = core::profileLayers(net, cfg);
    const std::size_t top =
        static_cast<std::size_t>(args.getInt("top", 15));
    std::printf("%s, batch %d — hottest %zu layers by kernel time:\n",
                net.name().c_str(), cfg.batchPerGpu, top);
    TextTable table({"layer", "kind", "output", "fwd (us)", "bwd (us)",
                     "GFLOPs", "params", "act (MB)"});
    for (const auto &row : summary.hottest(top)) {
        table.addRow(
            {row.name, row.kind, row.outputShape,
             TextTable::num(row.fwdUs, 1), TextTable::num(row.bwdUs, 1),
             TextTable::num(row.gflops, 2),
             std::to_string(row.params),
             TextTable::num(row.activationBytes / 1e6, 2)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("totals: fwd %.2f ms, bwd %.2f ms, %.1fM params, "
                "%.1f MB stored activations\n",
                summary.totalFwdUs / 1e3, summary.totalBwdUs / 1e3,
                summary.totalParams / 1e6,
                summary.totalActivationBytes / 1e6);
    return 0;
}

int
cmdVerify(const Args &args)
{
    core::TrainConfig cfg = core::configFromArgs(args);
    const auto check = core::checkDeterminism(cfg);
    std::printf("%s\n", check.summary().c_str());
    return check.deterministic ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    std::vector<std::string> tokens(argv + 2, argv + argc);
    const Args args = Args::parse(tokens);
    if (args.has("help") || command == "help")
        return usage();

    try {
        if (command == "train")
            return cmdTrain(args);
        if (command == "sweep")
            return cmdSweep(args);
        if (command == "campaign")
            return cmdCampaign(args);
        if (command == "check")
            return cmdCheck(args);
        if (command == "topo")
            return cmdTopo(args);
        if (command == "list")
            return cmdList(args);
        if (command == "advise")
            return cmdAdvise(args);
        if (command == "analyze")
            return cmdAnalyze(args);
        if (command == "layers")
            return cmdLayers(args);
        if (command == "verify")
            return cmdVerify(args);
    } catch (const dgxsim::sim::FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
}
