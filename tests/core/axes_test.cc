/**
 * @file
 * Tests of the axis table (core/axes.hh): every numeric axis rejects
 * NaN, infinities, negative and out-of-range values through the CLI
 * and through TrainConfig::validate(); the table drives listing and
 * the grid option aliases.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <functional>
#include <map>

#include "core/axes.hh"
#include "core/trainer_base.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using core::cli::Args;

/** @return true for axes whose values are numbers. */
bool
numeric(const core::Axis &a)
{
    const std::string syntax = a.syntax;
    return syntax == "N" || syntax == "F" || syntax == "N[kmg]";
}

/** @return the fatal message of @p f, or "" when it does not throw. */
std::string
fatalOf(const std::function<void()> &f)
{
    try {
        f();
    } catch (const sim::FatalError &err) {
        return err.what();
    }
    return "";
}

TEST(AxisTable, EveryNumericAxisRejectsBadCliValues)
{
    // Generated from the table: a new numeric axis is covered the
    // moment its row exists.
    std::size_t covered = 0;
    for (const core::Axis *a : core::axes()) {
        if (!numeric(*a))
            continue;
        ++covered;
        for (const char *bad : {"nan", "inf", "-inf", "-1", "1e400",
                                "99999999999999999999", "", "x"}) {
            const std::string msg = fatalOf([&] {
                core::configFromArgs(Args::parse(
                    {std::string("--") + a->name, bad}));
            });
            EXPECT_NE(msg.find(std::string("--") + a->name),
                      std::string::npos)
                << a->name << " " << bad << ": '" << msg << "'";
        }
    }
    EXPECT_EQ(covered, 11u);
}

TEST(AxisTable, EveryNumericAxisRejectsBadLibraryValues)
{
    // Out-of-range library values per numeric axis; the table check
    // below fails when an axis is added without an entry here.
    using Set = std::function<void(core::TrainConfig &)>;
    const double nan = std::nan("");
    const double inf = INFINITY;
    const std::map<std::string, std::vector<Set>> bad = {
        {"gpus", {[](auto &c) { c.numGpus = 0; },
                  [](auto &c) { c.numGpus = 9; }}},
        {"batch", {[](auto &c) { c.batchPerGpu = -1; }}},
        {"microbatches", {[](auto &c) { c.microbatches = -1; }}},
        {"nodes", {[](auto &c) { c.nodes = 0; }}},
        {"partition-bytes",
         {[](auto &c) { c.commConfig.partitionBytes = 0; },
          [](auto &c) { c.commConfig.partitionBytes = ~0ull; }}},
        {"credit-bytes",
         {[](auto &c) { c.commConfig.creditBytes = 0; },
          [](auto &c) { c.commConfig.creditBytes = ~0ull; }}},
        {"compress-ratio",
         {[=](auto &c) { c.commConfig.compressRatio = nan; },
          [=](auto &c) { c.commConfig.compressRatio = inf; },
          [=](auto &c) { c.commConfig.compressRatio = -inf; },
          [](auto &c) { c.commConfig.compressRatio = 0; },
          [](auto &c) { c.commConfig.compressRatio = 1.5; }}},
        {"images", {[](auto &c) { c.datasetImages = 0; },
                    [](auto &c) { c.datasetImages = ~0ull; }}},
        {"fusion-mb", {[=](auto &c) { c.bucketFusionMB = nan; },
                       [=](auto &c) { c.bucketFusionMB = inf; },
                       [](auto &c) { c.bucketFusionMB = -1; }}},
        {"async-iters", {[](auto &c) { c.asyncItersPerWorker = 0; }}},
        {"rings", {[](auto &c) { c.commConfig.ncclRings = 0; },
                   [](auto &c) { c.commConfig.ncclRings = 3; }}},
    };
    for (const core::Axis *a : core::axes()) {
        if (numeric(*a)) {
            EXPECT_EQ(bad.count(a->name), 1u) << a->name;
        }
    }
    EXPECT_NO_THROW(core::TrainConfig().validate());
    for (const auto &[name, sets] : bad) {
        for (const Set &set : sets) {
            core::TrainConfig cfg;
            cfg.model = "lenet";
            set(cfg);
            const std::string msg = fatalOf([&] { cfg.validate(); });
            EXPECT_NE(msg.find("--" + name), std::string::npos)
                << name << ": '" << msg << "'";
            // make() validates, so no strategy ever runs such a config.
            EXPECT_THROW(core::TrainerBase::make(cfg), sim::FatalError)
                << name;
        }
    }
}

TEST(AxisTable, ValidateAcceptsProbesAndDefaultDepth)
{
    core::TrainConfig cfg;
    cfg.measuredIterations = 0; // memory probe
    cfg.microbatches = 0;       // depth = numGpus
    EXPECT_NO_THROW(cfg.validate());
    cfg.platform = "dgx2";
    cfg.numGpus = 16;
    EXPECT_NO_THROW(cfg.validate());
    cfg.platform = "dgx3";
    EXPECT_NE(fatalOf([&] { cfg.validate(); }).find("did you mean"),
              std::string::npos);
}

TEST(AxisTable, CliRejectsTheReportedInputBugs)
{
    for (const std::vector<std::string> &argv :
         std::vector<std::vector<std::string>>{
             {"--compression", "dgc", "--compress-ratio", "nan"},
             {"--images", "-1"},
             {"--images", "3000000000"},
             {"--partition-bytes", "-1"},
             {"--credit-bytes", "-1"}}) {
        EXPECT_THROW(core::configFromArgs(Args::parse(argv)),
                     sim::FatalError)
            << argv.back();
    }
}

TEST(AxisTable, GridListsHonourTheBatchesAlias)
{
    const auto values = core::gridValuesFromArgs(Args::parse(
        {"--batch", "8", "--batches", "16,32", "--mode", "mp",
         "--images", "1000"}));
    EXPECT_EQ(values.at("batch"), (std::vector<std::string>{"16", "32"}));
    EXPECT_EQ(values.at("mode"), (std::vector<std::string>{"mp"}));
    EXPECT_EQ(values.count("images"), 0u) << "not a grid axis";
}

TEST(AxisTable, ListsEveryRegistryAndSuggestsOnTypos)
{
    for (const char *name : {"models", "platforms", "interconnects",
                             "schedulers", "compressors"})
        EXPECT_FALSE(core::listRegistry(name).empty()) << name;
    EXPECT_NE(fatalOf([] { core::listRegistry("platfroms"); })
                  .find("did you mean 'platforms'"),
              std::string::npos);
}

} // namespace
