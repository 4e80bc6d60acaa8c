/**
 * @file
 * RunRecord serialization tests: JSON round-trips exactly (including
 * doubles and 64-bit digests), CSV shape, the JSON parser's error
 * handling, and record/config conversions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "campaign/json.hh"
#include "campaign/record.hh"
#include "sim/logging.hh"

namespace dgxsim::campaign {
namespace {

RunRecord
sampleRecord()
{
    RunRecord r;
    r.model = "alexnet";
    r.gpus = 4;
    r.batch = 32;
    r.method = "nccl";
    r.images = 256000;
    r.oom = false;
    r.iterations = 2000;
    r.epochSeconds = 172.64712345678901;
    r.iterationSeconds = 0.086073561728394501;
    r.setupSeconds = 0.5;
    r.fpBpSeconds = 151.1234567890123;
    r.wuSeconds = 21.023456789012345;
    r.syncApiFraction = 0.63402754338922462;
    r.interGpuBytesPerIter = 614034816.25;
    r.gpu0TrainingBytes = 4583211008;
    r.gpuxTrainingBytes = 4371021312;
    r.preTrainingBytes = 651165696;
    r.digest = 0xdeadbeefcafe1234ull;
    return r;
}

TEST(RunRecord, JsonRoundTripsExactly)
{
    RunRecord oom;
    oom.model = "inception-v3";
    oom.gpus = 8;
    oom.batch = 512;
    oom.method = "p2p";
    oom.oom = true;
    const std::vector<RunRecord> records{sampleRecord(), oom};
    const auto parsed = recordsFromJson(recordsToJson(records));
    ASSERT_EQ(parsed.size(), records.size());
    EXPECT_EQ(parsed[0], records[0]);
    EXPECT_EQ(parsed[1], records[1]);
}

TEST(RunRecord, JsonSerializationIsDeterministic)
{
    const std::vector<RunRecord> records{sampleRecord()};
    EXPECT_EQ(recordsToJson(records), recordsToJson(records));
    const auto reparsed = recordsFromJson(recordsToJson(records));
    EXPECT_EQ(recordsToJson(reparsed), recordsToJson(records));
}

TEST(RunRecord, EmptyListRoundTrips)
{
    const auto parsed = recordsFromJson(recordsToJson({}));
    EXPECT_TRUE(parsed.empty());
}

TEST(RunRecord, CsvHasHeaderAndOneLinePerRecord)
{
    const std::vector<RunRecord> records{sampleRecord(),
                                         sampleRecord()};
    const std::string csv = recordsToCsv(records);
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 3u);
    EXPECT_EQ(csv.rfind("model,gpus,batch,method", 0), 0u);
    EXPECT_NE(csv.find("deadbeefcafe1234"), std::string::npos);
}

TEST(RunRecord, KeyIdentifiesTheConfiguration)
{
    EXPECT_EQ(sampleRecord().key(), "alexnet x4 b32 nccl i256000");
    RunRecord other = sampleRecord();
    other.batch = 64;
    EXPECT_NE(other.key(), sampleRecord().key());
}

TEST(RunRecord, ToConfigReproducesTheAxes)
{
    const core::TrainConfig cfg = sampleRecord().toConfig();
    EXPECT_EQ(cfg.model, "alexnet");
    EXPECT_EQ(cfg.numGpus, 4);
    EXPECT_EQ(cfg.batchPerGpu, 32);
    EXPECT_EQ(cfg.method, comm::CommMethod::NCCL);
    EXPECT_EQ(cfg.datasetImages, 256000u);
}

TEST(RunRecord, ModeRoundTripsThroughJsonAndConfig)
{
    RunRecord async = sampleRecord();
    async.mode = "async_ps";
    async.throughputImagesPerSec = 27194.584091159639;
    async.avgStaleness = 0.94999999999999996;
    async.maxStaleness = 3;
    RunRecord mp = sampleRecord();
    mp.mode = "model_parallel";
    mp.microbatches = 8;
    mp.bubbleFraction = 0.43755544628203258;
    const auto parsed =
        recordsFromJson(recordsToJson({async, mp}));
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0], async);
    EXPECT_EQ(parsed[1], mp);
    EXPECT_EQ(async.toConfig().mode, core::ParallelismMode::AsyncPs);
    EXPECT_EQ(mp.toConfig().mode,
              core::ParallelismMode::ModelParallel);
    EXPECT_EQ(mp.toConfig().microbatches, 8);
}

TEST(RunRecord, ModeExtendsKeyOnlyWhenNotSync)
{
    // Sync keys (and JSON) are frozen: the baseline written before
    // the mode axis existed must keep matching.
    EXPECT_EQ(sampleRecord().key(), "alexnet x4 b32 nccl i256000");
    EXPECT_EQ(recordsToJson({sampleRecord()}).find("\"mode\""),
              std::string::npos);
    RunRecord async = sampleRecord();
    async.mode = "async_ps";
    EXPECT_EQ(async.key(), "alexnet x4 b32 nccl i256000 async_ps");
    EXPECT_NE(recordsToJson({async}).find("\"mode\": \"async_ps\""),
              std::string::npos);
}

TEST(RunRecord, PlatformExtendsKeyOnlyWhenNotDefault)
{
    // Default-platform keys and JSON are frozen so baselines written
    // before the platform axis existed keep matching byte-for-byte.
    EXPECT_EQ(sampleRecord().key(), "alexnet x4 b32 nccl i256000");
    EXPECT_EQ(recordsToJson({sampleRecord()}).find("\"platform\""),
              std::string::npos);
    RunRecord dgx2 = sampleRecord();
    dgx2.platform = "dgx2";
    dgx2.gpus = 16;
    EXPECT_EQ(dgx2.key(), "alexnet x16 b32 nccl i256000 dgx2");
    EXPECT_NE(recordsToJson({dgx2}).find("\"platform\": \"dgx2\""),
              std::string::npos);
    const auto parsed = recordsFromJson(recordsToJson({dgx2}));
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], dgx2);
    EXPECT_EQ(dgx2.toConfig().platform, "dgx2");
    EXPECT_EQ(sampleRecord().toConfig().platform, "dgx1v");
}

TEST(RunRecord, MalformedJsonIsFatal)
{
    EXPECT_THROW(recordsFromJson("{"), sim::FatalError);
    EXPECT_THROW(recordsFromJson("[]"), sim::FatalError);
    EXPECT_THROW(recordsFromJson("{\"version\": 1}"),
                 sim::FatalError);
    EXPECT_THROW(
        recordsFromJson("{\"version\": 99, \"records\": []}"),
        sim::FatalError);
    EXPECT_THROW(
        recordsFromJson(
            "{\"version\": 1, \"records\": [{\"model\": \"x\"}]}"),
        sim::FatalError);
}

/** The seven committed golden baselines, in a fixed order. */
const char *const kGoldenFiles[] = {
    "baseline",          "baseline_cluster", "baseline_modes",
    "baseline_pipeline", "baseline_platforms", "baseline_sched",
    "baseline_zoo"};

std::string
goldenText(const std::string &stem)
{
    return readFile(std::string(DGXSIM_REPO_ROOT) + "/results/" + stem +
                    ".json");
}

TEST(GoldenRecords, JsonRoundTripsByteForByte)
{
    // Reading and re-writing a golden file must reproduce it exactly:
    // this gates the record writer, the reader and every
    // omit-when-default rule without running a simulation.
    for (const char *stem : kGoldenFiles) {
        const std::string text = goldenText(stem);
        EXPECT_EQ(recordsToJson(recordsFromJson(text)), text) << stem;
    }
}

TEST(GoldenRecords, KeysMatchThePinnedHash)
{
    // FNV-1a over every golden record's key(), one per line. The pin
    // was taken from the hand-written key() this table replaced.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::size_t records = 0;
    for (const char *stem : kGoldenFiles) {
        for (const RunRecord &r : recordsFromJson(goldenText(stem))) {
            for (char c : r.key() + "\n") {
                hash ^= static_cast<unsigned char>(c);
                hash *= 0x100000001b3ull;
            }
            ++records;
        }
    }
    EXPECT_EQ(records, 272u);
    EXPECT_EQ(hash, 0xaa99013a8f06b564ull) << std::hex << hash;
}

TEST(GoldenRecords, EveryConfigValidates)
{
    for (const char *stem : kGoldenFiles) {
        for (const RunRecord &r : recordsFromJson(goldenText(stem)))
            EXPECT_NO_THROW(r.toConfig().validate()) << r.key();
    }
}

TEST(RunRecord, CsvCarriesEveryRecordedAxis)
{
    // Two pipeline records that differ only in depth must yield
    // distinguishable CSV rows; JSON and key() keep their rules.
    RunRecord a = sampleRecord();
    a.mode = "pipeline";
    a.microbatches = 8;
    RunRecord b = a;
    b.microbatches = 16;
    const std::string csv = recordsToCsv({a, b});
    const std::size_t header = csv.find('\n');
    EXPECT_NE(csv.substr(0, header).find(",microbatches,"),
              std::string::npos);
    const std::size_t first = csv.find('\n', header + 1);
    EXPECT_NE(csv.substr(header + 1, first - header),
              csv.substr(first + 1));
    EXPECT_EQ(a.key(), "alexnet x4 b32 nccl i256000 pipeline ub8");
    EXPECT_NE(recordsToJson({a}).find("\"microbatches\": 8, "
                                      "\"bubble_fraction\""),
              std::string::npos);
}

TEST(Json, ParsesTheEmittedSubset)
{
    const JsonValue v = JsonValue::parse(
        "{\"a\": [1, 2.5, -3e2], \"b\": \"q\\\"uote\\n\", "
        "\"c\": true, \"d\": null}");
    EXPECT_EQ(v.at("a").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("a").asArray()[2].asNumber(), -300.0);
    EXPECT_EQ(v.stringAt("b"), "q\"uote\n");
    EXPECT_TRUE(v.boolAt("c"));
    EXPECT_TRUE(v.at("d").isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsTrailingGarbageAndBadEscapes)
{
    EXPECT_THROW(JsonValue::parse("{} x"), sim::FatalError);
    EXPECT_THROW(JsonValue::parse("\"\\q\""), sim::FatalError);
    EXPECT_THROW(JsonValue::parse("01a"), sim::FatalError);
    EXPECT_THROW(JsonValue::parse(""), sim::FatalError);
}

} // namespace
} // namespace dgxsim::campaign
