/**
 * @file
 * End-to-end cluster training tests: the 1-node degeneracy property
 * (a 1-node cluster replays the platform-only history tick for
 * tick), multi-node determinism up to 32 nodes, pinned 16-node
 * digests, distinct histories per inter-node schedule, the inter-node
 * critical-path attribution category, and the paper-style crossover
 * where the IB fabric dominates communication at scale.
 */

#include <gtest/gtest.h>

#include <memory>

#include "analysis/dag.hh"
#include "analysis/what_if.hh"
#include "comm/factory.hh"
#include "core/determinism.hh"
#include "core/trainer_base.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using core::TrainConfig;

TrainConfig
clusterConfig(const std::string &model, int nodes, int gpus_per_node)
{
    TrainConfig cfg;
    cfg.model = model;
    cfg.nodes = nodes;
    cfg.numGpus = gpus_per_node;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::NCCL;
    return cfg;
}

struct ClusterRun
{
    std::unique_ptr<core::TrainerBase> trainer;
    core::TrainReport report;
    analysis::Dag dag;
    analysis::Attribution attr;

    explicit ClusterRun(const TrainConfig &cfg)
        : trainer(core::TrainerBase::make(cfg)),
          report(trainer->run()),
          dag(trainer->profiler(), trainer->fabric().topology()),
          attr(dag.attribute())
    {
        EXPECT_FALSE(report.oom);
    }
};

TEST(ClusterTrainerTest, OneNodeClusterReplaysThePlatformHistory)
{
    // The degeneracy property: nodes=1 must be the platform-only
    // path, whatever the (unused) cluster knobs say. Digests fold
    // every event and per-link byte counter, so equality here means
    // the histories are identical tick for tick.
    const TrainConfig plain = clusterConfig("lenet", 1, 4);
    TrainConfig dressed = plain;
    dressed.interconnect = "ib400";
    dressed.netAlgo = comm::NetAlgo::Tree;
    dressed.ibBwScale = 4.0; // no IB links to scale
    EXPECT_EQ(core::runDigest(plain), core::runDigest(dressed));

    // And the critical-path attribution agrees field for field, with
    // nothing ever attributed to the (absent) inter-node fabric.
    const ClusterRun a(plain);
    const ClusterRun b(dressed);
    EXPECT_EQ(a.attr.makespan, b.attr.makespan);
    EXPECT_EQ(a.attr.compute, b.attr.compute);
    EXPECT_EQ(a.attr.comm, b.attr.comm);
    EXPECT_EQ(a.attr.api, b.attr.api);
    EXPECT_EQ(a.attr.idle, b.attr.idle);
    EXPECT_EQ(a.attr.interNodeComm, 0u);
    EXPECT_EQ(b.attr.interNodeComm, 0u);
    EXPECT_DOUBLE_EQ(a.report.interNodeBytesPerIter, 0.0);
}

TEST(ClusterTrainerTest, TwoNodeRunIsDeterministicAndAuditedClean)
{
    TrainConfig cfg = clusterConfig("lenet", 2, 2);
    cfg.audit = true;
    const auto report = core::TrainerBase::simulate(cfg);
    ASSERT_FALSE(report.oom);
    EXPECT_TRUE(report.audited);
    EXPECT_GT(report.auditChecks, 0u);
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_GT(report.interNodeBytesPerIter, 0.0);
    const auto again = core::TrainerBase::simulate(cfg);
    EXPECT_EQ(report.digest, again.digest);
}

TEST(ClusterTrainerTest, ClusterAxesReplayDistinctHistories)
{
    // Each cluster knob must actually reach the simulation: changing
    // the node count, the schedule, or the interconnect changes the
    // event history.
    const TrainConfig ring = clusterConfig("lenet", 4, 1);
    TrainConfig tree = ring;
    tree.netAlgo = comm::NetAlgo::Tree;
    TrainConfig fat = ring;
    fat.interconnect = "ib400";
    TrainConfig fewer = clusterConfig("lenet", 2, 1);
    const std::uint64_t d_ring = core::runDigest(ring);
    EXPECT_NE(d_ring, core::runDigest(tree));
    EXPECT_NE(d_ring, core::runDigest(fat));
    EXPECT_NE(d_ring, core::runDigest(fewer));
}

TEST(ClusterTrainerTest, ThirtyTwoNodeDigestsMatch)
{
    // The crossover experiments go out to 32 nodes; determinism must
    // hold there too (256 simulated GPUs for lenet x1 per node).
    const auto check =
        core::checkDeterminism(clusterConfig("lenet", 32, 1));
    EXPECT_FALSE(check.oom);
    EXPECT_TRUE(check.deterministic) << check.summary();
    EXPECT_NE(check.firstDigest, 0u);
}

TEST(ClusterTrainerTest, SixteenNodeDigestsArePinned)
{
    // The golden baselines stop at 8 nodes. These pins hold the event
    // history bit-exact at a scale where thousands of flows share the
    // fabric and many of them finish in the same tick.
    TrainConfig ring = clusterConfig("resnet-50", 16, 4);
    TrainConfig tree = ring;
    tree.netAlgo = comm::NetAlgo::Tree;
    EXPECT_EQ(core::runDigest(ring), 0x5c369e612f7b467eULL);
    EXPECT_EQ(core::runDigest(tree), 0xcf9dfe44139d12ccULL);
}

TEST(ClusterTrainerTest, InterNodeCommDominatesAtEightNodes)
{
    // The acceptance crossover: by 8 nodes the IB fabric, not the
    // NVLink fabric, holds the majority of communication time on the
    // critical path.
    const ClusterRun run(clusterConfig("alexnet", 8, 4));
    EXPECT_EQ(run.attr.total(), run.attr.makespan);
    EXPECT_GT(run.attr.interNodeComm, 0u);
    EXPECT_GT(run.attr.interNodeComm, run.attr.comm);
    EXPECT_GT(run.report.interNodeBytesPerIter, 0.0);
}

TEST(ClusterTrainerTest, IbBandwidthWhatIfBitesOnlyOffPlatform)
{
    // On a 2-node run a faster IB fabric must shorten the projected
    // makespan, and the ground-truth knob must reach the config.
    const TrainConfig cfg = clusterConfig("lenet", 2, 2);
    const ClusterRun run(cfg);
    const analysis::WhatIf what_if(run.dag, cfg, run.report);
    analysis::WhatIfParams fat_ib;
    fat_ib.ibBw = 4.0;
    EXPECT_LT(what_if.project(fat_ib), run.dag.makespan());
    const TrainConfig mod =
        analysis::WhatIf::modifiedConfig(cfg, fat_ib);
    EXPECT_DOUBLE_EQ(mod.ibBwScale, 4.0);
}

TEST(ClusterTrainerTest, MultiNodeRequiresSyncDataParallel)
{
    TrainConfig cfg = clusterConfig("lenet", 2, 2);
    cfg.mode = core::ParallelismMode::AsyncPs;
    EXPECT_THROW(core::TrainerBase::simulate(cfg), sim::FatalError);
    cfg.mode = core::ParallelismMode::ModelParallel;
    cfg.method = comm::CommMethod::P2P;
    EXPECT_THROW(core::TrainerBase::simulate(cfg), sim::FatalError);
}

} // namespace
