/**
 * @file
 * Harness benchmark: how fast does the *simulator itself* run?
 *
 * Unlike the figure/table benches (which report simulated seconds via
 * manual timing), this binary measures wall-clock throughput of the
 * simulation engine: EventQueue scheduling under storm and
 * reschedule-churn loads, FlowNetwork::allocateRates under flow
 * churn, single training runs per (model, gpus, method) cell, and
 * the paper's full 120-run campaign grid, cold and memo-warm.
 *
 * Three driver modes bypass Google Benchmark so CI gets a single
 * deterministic artifact (campaign/benchfile.hh schema):
 *
 *   --emit-json=PATH [--smoke] [--label=NAME]
 *       Measure and write a BENCH file. --smoke shrinks workloads
 *       for a fast schema/determinism test; smoke numbers are NOT
 *       comparable to full runs and the emitted note says so.
 *   --validate=PATH
 *       Strict-parse an existing BENCH file (exit 0 iff valid).
 *   --check-against=PATH [--tolerance=F]
 *       Measure at full size and compare against the committed
 *       file, normalized by the eq_storm calibration metric so the
 *       gate tracks code-speed ratios, not absolute host speed.
 *       Exit 1 on any regression beyond the tolerance (default 25%).
 *
 * Without those flags it runs as a normal Google Benchmark binary.
 *
 * All workload shapes use a fixed-constant LCG, never libc rand, so
 * every mode on every host replays the identical event/flow stream.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/benchfile.hh"
#include "campaign/campaign.hh"
#include "comm/compression.hh"
#include "comm/scheduler.hh"
#include "core/trainer_base.hh"
#include "sim/event_queue.hh"
#include "sim/flow_network.hh"

namespace {

using namespace dgxsim;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Deterministic PRNG: bench inputs must not depend on libc rand. */
struct Lcg
{
    std::uint64_t state;
    explicit Lcg(std::uint64_t seed) : state(seed) {}
    std::uint64_t operator()()
    {
        state = state * 6364136223846793005ULL +
                1442695040888963407ULL;
        return state >> 33;
    }
};

/** Workload sizes; smoke mode shrinks them for a fast schema test. */
struct Sizes
{
    int stormEvents = 400000;
    int churnRounds = 6000;
    int flowChurn = 20000;
    int schedRounds = 20000;
    int singleReps = 5;
    /** Floor on each single_run measurement's wall time. */
    double singleMinSeconds = 0.05;
    int passes = 3; ///< best-of passes per metric
};

Sizes
smokeSizes()
{
    Sizes s;
    s.stormEvents = 50000;
    s.churnRounds = 800;
    s.flowChurn = 2500;
    s.schedRounds = 2000;
    s.singleReps = 1;
    s.singleMinSeconds = 0;
    s.passes = 1;
    return s;
}

// --- measurement loops (shared by every mode) ----------------------

/** Schedule at pseudo-random future ticks, draining as we go. */
double
measureEqStorm(int n)
{
    sim::EventQueue q;
    Lcg lcg(99);
    long sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
        q.schedule(q.now() + 1 + lcg() % 1000, [&sink] { ++sink; });
        if (i % 4 == 3)
            q.step();
    }
    q.run();
    return n / secondsSince(t0);
}

/**
 * Cancel churn: K live handles cancelled and scheduled anew every
 * round — eager heap removal plus the arena free-list's hot case.
 */
double
measureEqChurn(int rounds)
{
    sim::EventQueue q;
    Lcg lcg(7);
    const int K = 64;
    long sink = 0;
    std::vector<sim::EventHandle> handles(K);
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (int k = 0; k < K; ++k) {
            q.cancel(handles[k]);
            handles[k] =
                q.schedule(q.now() + 1 + lcg() % 64, [&sink] { ++sink; });
        }
        q.step();
    }
    q.run();
    return static_cast<double>(rounds) * K / secondsSince(t0);
}

/**
 * allocateRates under churn: a DGX-1-ish 64-channel substrate with
 * 48 long-lived background flows, then a stream of short flows whose
 * start/finish forces rate recomputation each time.
 */
double
measureFlowChurn(int churn)
{
    sim::EventQueue q;
    sim::FlowNetwork net(q);
    const std::size_t C = 64;
    for (std::size_t c = 0; c < C; ++c)
        net.addChannel(25.0, "ch");
    Lcg lcg(0x2545F4914F6CDD1DULL);
    for (int f = 0; f < 48; ++f) {
        const sim::FlowNetwork::ChannelId a = lcg() % C;
        sim::FlowNetwork::ChannelId b = lcg() % C;
        if (b == a)
            b = (a + 1) % C;
        net.startFlow(static_cast<sim::Bytes>(1) << 40, {a, b},
                      nullptr);
    }
    int done = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < churn; ++i) {
        const sim::FlowNetwork::ChannelId a = lcg() % C;
        sim::FlowNetwork::ChannelId b = lcg() % C;
        if (b == a)
            b = (a + 1) % C;
        net.startFlow(1000, {a, b}, [&done] { ++done; });
        while (done <= i && q.step()) {
        }
    }
    return churn / secondsSince(t0);
}

/**
 * The partitioned policy's worst case: every round submits one jumbo
 * gradient (256 MiB -> 64 chunks) plus 63 small urgent buckets that
 * must all overtake it, then drains the queue chunk by chunk. This
 * exercises the priority heap, the credit window and the reassembly
 * audit on every admitted chunk.
 */
double
measureSchedStorm(int rounds)
{
    auto sched =
        comm::makeScheduler(comm::SchedulerPolicy::Partitioned,
                            comm::kDefaultPartitionBytes,
                            comm::kDefaultCreditBytes, {});
    long done = 0;
    long chunks = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        sched->submit(comm::OpKind::Reduce, sim::Bytes(256) << 20, 0,
                      [&done] { ++done; }, nullptr);
        for (int i = 0; i < 63; ++i) {
            sched->submit(comm::OpKind::Reduce, sim::Bytes(64) << 10,
                          1 + i, [&done] { ++done; }, nullptr);
        }
        comm::SchedChunk chunk;
        while (sched->next(chunk)) {
            ++chunks;
            if (sched->finishChunk(chunk))
                chunk.op->done();
        }
    }
    return chunks / secondsSince(t0);
}

/**
 * The compressed wire's hot path: the sched-storm drain with the
 * per-chunk codec math (wire shrink + encode/decode kernel costs for
 * a 4-GPU all-reduce) computed for every admitted chunk, the way
 * Communicator::dispatchCompressed does. Jumbo 256 MiB gradients
 * through the partitioned policy give the highest chunk rate and the
 * biggest shrink, so codec arithmetic dominates the loop.
 */
double
measureCompressStorm(int rounds)
{
    auto sched =
        comm::makeScheduler(comm::SchedulerPolicy::Partitioned,
                            comm::kDefaultPartitionBytes,
                            comm::kDefaultCreditBytes, {});
    long done = 0;
    long chunks = 0;
    double wireSink = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        sched->submit(comm::OpKind::Reduce, sim::Bytes(256) << 20, 0,
                      [&done] { ++done; }, nullptr);
        for (int i = 0; i < 63; ++i) {
            sched->submit(comm::OpKind::Reduce, sim::Bytes(64) << 10,
                          1 + i, [&done] { ++done; }, nullptr);
        }
        comm::SchedChunk chunk;
        while (sched->next(chunk)) {
            ++chunks;
            const sim::Bytes wire = comm::compressedWireBytes(
                comm::Compressor::Dgc, chunk.bytes, 0.01);
            const auto enc = comm::compressKernelCost(
                comm::Compressor::Dgc, chunk.bytes, wire);
            const auto dec = comm::decompressKernelCost(
                comm::Compressor::Dgc, chunk.bytes, wire);
            // 4 senders encode + 4 receivers decode per all-reduce.
            wireSink += static_cast<double>(wire) +
                        4 * (enc.flops + dec.flops) +
                        4 * (enc.bytes + dec.bytes);
            if (sched->finishChunk(chunk))
                chunk.op->done();
        }
    }
    if (wireSink < 0) // defeat optimizing the codec math away
        std::fprintf(stderr, "%f\n", wireSink);
    return chunks / secondsSince(t0);
}

core::TrainConfig
cellConfig(const std::string &model, int gpus, comm::CommMethod method)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = 16;
    cfg.method = method;
    return cfg;
}

/**
 * @return mean wall milliseconds per full training simulation, over
 * at least @p reps runs and at least @p min_seconds of wall time. The
 * small cells take 0.1-1.5 ms a run, and a few such runs time mostly
 * host noise.
 */
double
measureSingleRun(const core::TrainConfig &cfg, int reps,
                 double min_seconds)
{
    const auto t0 = Clock::now();
    int runs = 0;
    double elapsed = 0;
    do {
        core::TrainerBase::simulate(cfg);
        ++runs;
        elapsed = secondsSince(t0);
    } while (runs < reps || elapsed < min_seconds);
    return elapsed / runs * 1e3;
}

std::vector<core::TrainConfig>
paperGrid()
{
    campaign::CampaignSpec spec;
    spec.values["model"] = {"lenet", "alexnet", "googlenet",
                            "inception-v3", "resnet-50"};
    return spec.expand();
}

/** Cold = nothing memoized: both process-wide caches are cleared. */
double
measureGridCold(const std::vector<core::TrainConfig> &configs)
{
    campaign::clearSimulationCache();
    const auto t0 = Clock::now();
    const auto records = campaign::runCampaign(configs, 1);
    return records.size() / secondsSince(t0);
}

/** Warm = every run a memo hit; measures the cache-hit path only. */
double
measureGridWarm(const std::vector<core::TrainConfig> &configs)
{
    campaign::runCampaign(configs, 1); // prime
    const auto t0 = Clock::now();
    const auto records = campaign::runCampaign(configs, 1);
    return records.size() / secondsSince(t0);
}

// --- metric table --------------------------------------------------

const std::vector<std::string> &
paperModels()
{
    static const std::vector<std::string> models = {
        "lenet", "alexnet", "googlenet", "inception-v3", "resnet-50"};
    return models;
}

std::string
metricSlug(std::string s)
{
    for (char &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

std::string
singleRunMetric(const std::string &model, int gpus,
                comm::CommMethod method)
{
    return "single_run_" + metricSlug(model) + "_g" +
           std::to_string(gpus) + "_" +
           (method == comm::CommMethod::P2P ? "p2p" : "nccl") + "_ms";
}

/**
 * Run every measurement, best-of @p sizes.passes, and return the
 * metric list (unsorted; the serializer sorts).
 */
std::vector<campaign::BenchMetric>
measureAll(const Sizes &sizes)
{
    std::map<std::string, campaign::BenchMetric> best;
    const auto record = [&best](const std::string &name,
                                const std::string &unit, bool higher,
                                double value) {
        auto it = best.find(name);
        if (it == best.end()) {
            best[name] = {name, unit, higher, value};
        } else if (higher ? value > it->second.value
                          : value < it->second.value) {
            it->second.value = value;
        }
    };

    const auto configs = paperGrid();
    for (int pass = 0; pass < sizes.passes; ++pass) {
        std::fprintf(stderr, "[perf_simulator] pass %d/%d\n",
                     pass + 1, sizes.passes);
        record("eq_storm_events_per_sec", "events/s", true,
               measureEqStorm(sizes.stormEvents));
        record("eq_churn_resched_per_sec", "resched/s", true,
               measureEqChurn(sizes.churnRounds));
        record("flow_churn_flows_per_sec", "flows/s", true,
               measureFlowChurn(sizes.flowChurn));
        record("sched_storm_chunks_per_sec", "chunks/s", true,
               measureSchedStorm(sizes.schedRounds));
        record("compress_storm_chunks_per_sec", "chunks/s", true,
               measureCompressStorm(sizes.schedRounds));
        for (const std::string &model : paperModels()) {
            for (int gpus : {1, 8}) {
                for (auto method : {comm::CommMethod::P2P,
                                    comm::CommMethod::NCCL}) {
                    record(singleRunMetric(model, gpus, method), "ms",
                           false,
                           measureSingleRun(
                               cellConfig(model, gpus, method),
                               sizes.singleReps,
                               sizes.singleMinSeconds));
                }
            }
        }
        record("grid120_cold_sims_per_sec", "sims/s", true,
               measureGridCold(configs));
        record("grid120_warm_sims_per_sec", "sims/s", true,
               measureGridWarm(configs));
    }

    std::vector<campaign::BenchMetric> metrics;
    metrics.reserve(best.size());
    for (auto &[name, metric] : best)
        metrics.push_back(std::move(metric));
    return metrics;
}

/**
 * The pre-optimization measurement, taken on the seed build (commit
 * bbb873a) with these exact loops at full size, jobs=1, single-core
 * container, best of two manual runs. Hard-coded so the committed
 * trajectory always starts from the honest "before" even on hosts
 * that never built the seed.
 */
campaign::BenchPoint
preChangePoint()
{
    campaign::BenchPoint p;
    p.label = "pre-perf-work";
    p.note = "seed build (bbb873a): shared_ptr+priority_queue "
             "EventQueue, from-scratch max-min solver, no layer-cost "
             "cache; same loops, full size, jobs=1, best of 2";
    p.values = {
        {"eq_storm_events_per_sec", 1936297},
        {"eq_churn_resched_per_sec", 7601694},
        {"flow_churn_flows_per_sec", 33742},
        {"grid120_cold_sims_per_sec", 123.2},
        {"single_run_lenet_g1_p2p_ms", 0.094},
        {"single_run_alexnet_g8_nccl_ms", 9.428},
        {"single_run_googlenet_g8_nccl_ms", 20.433},
        {"single_run_inception_v3_g8_nccl_ms", 66.437},
        {"single_run_resnet_50_g8_nccl_ms", 54.700},
    };
    return p;
}

/**
 * The measurement taken just before profiler records switched from
 * owned std::strings to interned Names (profiling/interner.hh), same
 * loops, full size, jobs=1. Kept as a fixed trajectory point so the
 * committed file always shows the before/after of that change; the
 * run-to-run delta must be read against the eq_storm calibration
 * metric, which does not touch the profiler.
 */
campaign::BenchPoint
preInterningPoint()
{
    campaign::BenchPoint p;
    p.label = "pre-interning";
    p.note = "before interned profiler record names: records owned "
             "four std::strings each; full-size run, jobs=1, best "
             "of 3 (no sched_storm metric yet)";
    p.values = {
        {"eq_storm_events_per_sec", 2966228.76},
        {"eq_churn_resched_per_sec", 8234596.45},
        {"flow_churn_flows_per_sec", 46357.4211},
        {"grid120_cold_sims_per_sec", 213.640394},
        {"grid120_warm_sims_per_sec", 346159.505},
        {"single_run_lenet_g1_p2p_ms", 0.0936508},
        {"single_run_alexnet_g8_nccl_ms", 4.9657778},
        {"single_run_googlenet_g8_nccl_ms", 11.4277164},
        {"single_run_inception_v3_g8_nccl_ms", 36.6487954},
        {"single_run_resnet_50_g8_nccl_ms", 29.8834656},
    };
    return p;
}

/**
 * The measurement taken just before the event heap went indexed
 * (eager cancel, in-place reschedule) and Fabric began memoizing
 * routes; same loops, full size, jobs=1. Kept as a fixed trajectory
 * point so the committed file shows that change's before/after on one
 * host. eq_churn is the loop it targets; eq_storm, the calibration
 * metric, cancels nothing.
 */
campaign::BenchPoint
preEagerCancelPoint()
{
    campaign::BenchPoint p;
    p.label = "pre-eager-cancel";
    p.note = "before the indexed event heap and the Fabric route memo: "
             "lazy cancel, findRoute per transfer; full-size runs, "
             "jobs=1, best of 3 runs of 3 passes, same host as the "
             "point after it";
    p.values = {
        {"eq_storm_events_per_sec", 2631765.04},
        {"eq_churn_resched_per_sec", 6629629.14},
        {"flow_churn_flows_per_sec", 39377.8906},
        {"grid120_cold_sims_per_sec", 162.018939},
        {"grid120_warm_sims_per_sec", 1783962.18},
        {"sched_storm_chunks_per_sec", 12121434.3},
        {"compress_storm_chunks_per_sec", 10671120.7},
        {"single_run_lenet_g1_p2p_ms", 0.141976},
        {"single_run_alexnet_g8_nccl_ms", 5.2365752},
        {"single_run_googlenet_g8_nccl_ms", 12.1760254},
        {"single_run_inception_v3_g8_nccl_ms", 43.2507198},
        {"single_run_resnet_50_g8_nccl_ms", 34.1446326},
    };
    return p;
}

/**
 * The measurement taken just before FlowNetwork went from one
 * completion event per flow to one armed event per network; same
 * loops as the point after it (single runs repeated to >= 50 ms),
 * full size, jobs=1. Only flow_churn exercises the change: the
 * single-box cells run few concurrent flows.
 */
campaign::BenchPoint
preArmedEventPoint()
{
    campaign::BenchPoint p;
    p.label = "pre-armed-event";
    p.note = "before one armed completion event per FlowNetwork: one "
             "event per flow, same-tick finishers completed one "
             "nested re-solve at a time; full-size runs, jobs=1, best "
             "of 3 runs of 3 passes, same host as the point after it";
    p.values = {
        {"eq_storm_events_per_sec", 2617241.66},
        {"eq_churn_resched_per_sec", 25965300.6},
        {"flow_churn_flows_per_sec", 50566.1789},
        {"grid120_cold_sims_per_sec", 247.576719},
        {"grid120_warm_sims_per_sec", 1813428.44},
        {"sched_storm_chunks_per_sec", 12150260.3},
        {"compress_storm_chunks_per_sec", 11173150.7},
        {"single_run_lenet_g1_p2p_ms", 0.0627657039},
        {"single_run_alexnet_g8_nccl_ms", 3.48935233},
        {"single_run_googlenet_g8_nccl_ms", 8.9020935},
        {"single_run_inception_v3_g8_nccl_ms", 27.2312458},
        {"single_run_resnet_50_g8_nccl_ms", 20.2880746},
    };
    return p;
}

campaign::BenchFile
buildBenchFile(const Sizes &sizes, const std::string &label,
               bool smoke)
{
    campaign::BenchFile file;
    file.suite = "simulator";
    file.metrics = measureAll(sizes);
    file.trajectory.push_back(preChangePoint());
    file.trajectory.push_back(preInterningPoint());
    file.trajectory.push_back(preEagerCancelPoint());
    file.trajectory.push_back(preArmedEventPoint());
    campaign::BenchPoint now;
    now.label = label;
    now.note = smoke ? "smoke run: reduced workloads, values NOT "
                       "comparable to full-size points"
                     : "full-size run, jobs=1, best of " +
                           std::to_string(sizes.passes) +
                           ", single runs repeated to >= " +
                           std::to_string(static_cast<int>(
                               sizes.singleMinSeconds * 1e3)) +
                           " ms";
    for (const campaign::BenchMetric &m : file.metrics)
        now.values[m.name] = m.value;
    file.trajectory.push_back(std::move(now));
    return file;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// --- driver modes --------------------------------------------------

int
emitMode(const std::string &path, bool smoke, const std::string &label)
{
    const Sizes sizes = smoke ? smokeSizes() : Sizes{};
    const campaign::BenchFile file = buildBenchFile(sizes, label, smoke);
    const std::string text = campaign::serializeBenchFile(file);
    // Round-trip through the strict parser so an emitted file can
    // never be one the validator rejects.
    campaign::parseBenchFile(text);
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        return 2;
    }
    out << text;
    std::printf("wrote %s (%zu metrics, %zu trajectory points)\n",
                path.c_str(), file.metrics.size(),
                file.trajectory.size());
    return 0;
}

int
validateMode(const std::string &path)
{
    const campaign::BenchFile file =
        campaign::parseBenchFile(slurp(path)); // fatal if invalid
    std::printf("%s: valid %s file, suite '%s', %zu metrics, %zu "
                "trajectory points\n",
                path.c_str(), campaign::kBenchSchema,
                file.suite.c_str(), file.metrics.size(),
                file.trajectory.size());
    return 0;
}

int
checkMode(const std::string &path, double tolerance)
{
    const campaign::BenchFile committed =
        campaign::parseBenchFile(slurp(path));
    campaign::BenchFile fresh;
    fresh.suite = committed.suite;
    fresh.metrics = measureAll(Sizes{});
    const std::vector<std::string> regressions =
        campaign::findRegressions(committed, fresh, tolerance,
                                  "eq_storm_events_per_sec");
    for (const campaign::BenchMetric &m : fresh.metrics)
        std::printf("  %-40s %12.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (regressions.empty()) {
        std::printf("perf check vs %s: OK (tolerance %.0f%%, "
                    "calibrated on eq_storm)\n",
                    path.c_str(), tolerance * 100.0);
        return 0;
    }
    std::printf("perf check vs %s: %zu regression(s)\n", path.c_str(),
                regressions.size());
    for (const std::string &r : regressions)
        std::printf("  REGRESSION %s\n", r.c_str());
    return 1;
}

// --- Google Benchmark registrations --------------------------------

void
registerBenchmarks()
{
    benchmark::RegisterBenchmark("BM_EventQueueStorm",
                                 [](benchmark::State &state) {
                                     const Sizes s;
                                     for (auto _ : state)
                                         benchmark::DoNotOptimize(
                                             measureEqStorm(
                                                 s.stormEvents));
                                     state.SetItemsProcessed(
                                         state.iterations() *
                                         s.stormEvents);
                                 });
    benchmark::RegisterBenchmark("BM_EventQueueChurn",
                                 [](benchmark::State &state) {
                                     const Sizes s;
                                     for (auto _ : state)
                                         benchmark::DoNotOptimize(
                                             measureEqChurn(
                                                 s.churnRounds));
                                     state.SetItemsProcessed(
                                         state.iterations() *
                                         s.churnRounds * 64);
                                 });
    benchmark::RegisterBenchmark("BM_FlowNetworkChurn",
                                 [](benchmark::State &state) {
                                     const Sizes s;
                                     for (auto _ : state)
                                         benchmark::DoNotOptimize(
                                             measureFlowChurn(
                                                 s.flowChurn));
                                     state.SetItemsProcessed(
                                         state.iterations() *
                                         s.flowChurn);
                                 });
    benchmark::RegisterBenchmark("BM_SchedStorm",
                                 [](benchmark::State &state) {
                                     const Sizes s;
                                     for (auto _ : state)
                                         benchmark::DoNotOptimize(
                                             measureSchedStorm(
                                                 s.schedRounds));
                                     state.SetItemsProcessed(
                                         state.iterations() *
                                         s.schedRounds * 127);
                                 });
    benchmark::RegisterBenchmark("BM_CompressStorm",
                                 [](benchmark::State &state) {
                                     const Sizes s;
                                     for (auto _ : state)
                                         benchmark::DoNotOptimize(
                                             measureCompressStorm(
                                                 s.schedRounds));
                                     state.SetItemsProcessed(
                                         state.iterations() *
                                         s.schedRounds * 127);
                                 });
    for (const std::string &model : paperModels()) {
        for (int gpus : {1, 8}) {
            for (auto method :
                 {comm::CommMethod::P2P, comm::CommMethod::NCCL}) {
                const std::string name =
                    "BM_SingleRun/" + singleRunMetric(model, gpus,
                                                      method);
                const core::TrainConfig cfg =
                    cellConfig(model, gpus, method);
                benchmark::RegisterBenchmark(
                    name.c_str(), [cfg](benchmark::State &state) {
                        for (auto _ : state)
                            core::TrainerBase::simulate(cfg);
                    });
            }
        }
    }
    benchmark::RegisterBenchmark(
        "BM_Grid120Cold", [](benchmark::State &state) {
            const auto configs = paperGrid();
            for (auto _ : state) {
                campaign::clearSimulationCache();
                benchmark::DoNotOptimize(
                    campaign::runCampaign(configs, 1));
            }
            state.SetItemsProcessed(state.iterations() *
                                    configs.size());
        });
    benchmark::RegisterBenchmark(
        "BM_Grid120Warm", [](benchmark::State &state) {
            const auto configs = paperGrid();
            campaign::runCampaign(configs, 1); // prime
            for (auto _ : state)
                benchmark::DoNotOptimize(
                    campaign::runCampaign(configs, 1));
            state.SetItemsProcessed(state.iterations() *
                                    configs.size());
        });
}

const char *
flagValue(const char *arg, const char *flag)
{
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string emitPath, validatePath, checkPath;
    std::string label = "this-commit";
    bool smoke = false;
    double tolerance = 0.25;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = flagValue(argv[i], "--emit-json"))
            emitPath = v;
        else if (const char *v = flagValue(argv[i], "--validate"))
            validatePath = v;
        else if (const char *v = flagValue(argv[i], "--check-against"))
            checkPath = v;
        else if (const char *v = flagValue(argv[i], "--label"))
            label = v;
        else if (const char *v = flagValue(argv[i], "--tolerance"))
            tolerance = std::atof(v);
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }
    if (!validatePath.empty())
        return validateMode(validatePath);
    if (!emitPath.empty())
        return emitMode(emitPath, smoke, label);
    if (!checkPath.empty())
        return checkMode(checkPath, tolerance);

    registerBenchmarks();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
