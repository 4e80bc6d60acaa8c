#include "campaign/record.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <variant>

#include "campaign/json.hh"
#include "sim/logging.hh"

namespace dgxsim::campaign {

namespace {

/** Format a double so that parsing it back is exact. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fmtHex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::uint64_t
parseHex64(const std::string &text)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 16);
    if (end == text.c_str() || *end != '\0')
        sim::fatal("malformed digest '", text, "'");
    return v;
}

/** Escape a string for JSON output. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

/** Escape a CSV field (quote when it contains , " or newline). */
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out += "\"";
    return out;
}

using Member =
    std::variant<std::string RunRecord::*, bool RunRecord::*,
                 int RunRecord::*, std::uint64_t RunRecord::*,
                 double RunRecord::*>;

enum class Style { Key, Json, Csv };

/** @return member @p m of @p r spelled for key(), JSON or CSV. */
template <Style S>
std::string
spell(const RunRecord &r, auto m)
{
    const auto &v = r.*m;
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, std::string>)
        return S == Style::Json  ? '"' + jsonEscape(v) + '"'
               : S == Style::Csv ? csvEscape(v)
                                 : v;
    else if constexpr (std::is_same_v<T, bool>)
        return S == Style::Csv ? (v ? "1" : "0") : v ? "true" : "false";
    else if constexpr (std::is_same_v<T, double>)
        return fmtDouble(v);
    else
        return std::to_string(v);
}

// When JSON carries the conditional outcome fields.
constexpr auto multiNode = [](const RunRecord &r) { return r.nodes > 1; };
constexpr auto asyncMode = [](const RunRecord &r) {
    return core::parseParallelismMode(r.mode) ==
           core::ParallelismMode::AsyncPs;
};
constexpr auto stagedMode = [](const RunRecord &r) {
    return core::isStaged(core::parseParallelismMode(r.mode));
};
constexpr auto analyzed = [](const RunRecord &r) { return r.hasAnalysis; };
constexpr auto analyzedMultiNode = [](const RunRecord &r) {
    return r.hasAnalysis && r.nodes > 1;
};

/** One record member as JSON and CSV carry it; the digest, written
 * last as hex, is not one. */
struct Field
{
    const char *json;
    Member member;
    /** JSON carries it only when this holds; nullptr: always. */
    bool (*when)(const RunRecord &) = nullptr;
    /** JSON starts a new line after it. */
    bool lineEnd = false;
    bool csv = false;
    /** The axis of a recorded axis, whose emit rule applies. */
    const core::Axis *axis = nullptr;

    bool
    inJson(const RunRecord &r) const
    {
        return axis ? !axis->withOutcome && axis->emits(r)
                    : !when || when(r);
    }
    bool required() const { return axis ? !axis->emit : !when; }
};

/** The outcome fields, in JSON order after the axes. */
const Field kOutcomes[] = {
    {"oom", &RunRecord::oom, nullptr, false, true},
    {"iterations", &RunRecord::iterations, nullptr, false, true},
    {"epoch_s", &RunRecord::epochSeconds, nullptr, false, true},
    {"iteration_s", &RunRecord::iterationSeconds, nullptr, true, true},
    {"setup_s", &RunRecord::setupSeconds, nullptr, false, true},
    {"fpbp_s", &RunRecord::fpBpSeconds, nullptr, false, true},
    {"wu_s", &RunRecord::wuSeconds, nullptr, true, true},
    {"sync_api_fraction", &RunRecord::syncApiFraction, nullptr, false,
     true},
    {"inter_gpu_bytes_per_iter", &RunRecord::interGpuBytesPerIter,
     nullptr, true, true},
    {"inter_node_bytes_per_iter", &RunRecord::interNodeBytesPerIter,
     multiNode, true, true},
    {"throughput_img_s", &RunRecord::throughputImagesPerSec, asyncMode},
    {"avg_staleness", &RunRecord::avgStaleness, asyncMode},
    {"max_staleness", &RunRecord::maxStaleness, asyncMode, true},
    // The microbatches axis rides with its stage outcome in JSON.
    {"microbatches", &RunRecord::microbatches, stagedMode},
    {"bubble_fraction", &RunRecord::bubbleFraction, stagedMode, true},
    {"cp_compute_s", &RunRecord::cpComputeSeconds, analyzed},
    {"cp_comm_s", &RunRecord::cpCommSeconds, analyzed},
    {"cp_inter_node_comm_s", &RunRecord::cpInterNodeCommSeconds,
     analyzedMultiNode},
    {"cp_api_s", &RunRecord::cpApiSeconds, analyzed},
    {"cp_idle_s", &RunRecord::cpIdleSeconds, analyzed, true},
    {"mem_pre_bytes", &RunRecord::preTrainingBytes, nullptr, false, true},
    {"mem_gpu0_bytes", &RunRecord::gpu0TrainingBytes, nullptr, false,
     true},
    {"mem_gpux_bytes", &RunRecord::gpuxTrainingBytes, nullptr, true,
     true},
};

/** @return every record field: the recorded axes of the axis table,
 * in its order, then the outcome. */
const std::vector<Field> &
fields()
{
    static const std::vector<Field> all = [] {
        std::vector<Field> out;
        for (const core::Axis *a : core::axes()) {
            std::visit(
                [&](auto m) {
                    if constexpr (!std::is_same_v<decltype(m),
                                                  std::monostate>)
                        out.push_back({a->json, m, nullptr, false, true, a});
                },
                a->field);
        }
        // The axes fill the first JSON line; images always ends it.
        out.back().lineEnd = true;
        out.insert(out.end(), std::begin(kOutcomes), std::end(kOutcomes));
        return out;
    }();
    return all;
}

void
read(const JsonValue &v, const char *name, auto &out)
{
    using T = std::decay_t<decltype(out)>;
    if constexpr (std::is_same_v<T, std::string>) {
        out = v.asString();
    } else if constexpr (std::is_same_v<T, bool>) {
        out = v.asBool();
    } else {
        // Our integral fields fit in a double's 53-bit mantissa
        // (bytes, iteration counts); digests travel as hex strings.
        const double d = v.asNumber();
        using Lim = std::numeric_limits<T>;
        if (Lim::is_integer &&
            !(d >= Lim::min() && d < std::ldexp(1.0, Lim::digits)))
            sim::fatal("JSON member '", name, "' is out of range: ", d);
        out = static_cast<T>(d);
    }
}

RunRecord
readRecord(const JsonValue &obj)
{
    RunRecord r;
    for (const Field &f : fields()) {
        if (const JsonValue *v = obj.find(f.json))
            std::visit([&](auto m) { read(*v, f.json, r.*m); }, f.member);
        else if (f.required())
            obj.at(f.json); // fatal, naming the missing member
    }
    r.hasAnalysis = obj.find("cp_compute_s") != nullptr;
    r.digest = parseHex64(obj.stringAt("digest"));
    return r;
}

} // namespace

std::string
RunRecord::key() const
{
    // The always-carried axes lead; the optional ones follow in
    // table order, each only when its emit rule holds.
    std::string out;
    for (bool optional : {false, true}) {
        for (const Field &f : fields()) {
            if (!f.axis || (f.axis->emit != nullptr) != optional ||
                !f.axis->emits(*this))
                continue;
            out += out.empty() ? "" : " ";
            out += f.axis->keyPrefix;
            out += std::visit(
                [&](auto m) { return spell<Style::Key>(*this, m); },
                f.member);
        }
    }
    return out;
}

core::TrainConfig
RunRecord::toConfig() const
{
    core::TrainConfig cfg;
    for (const core::Axis *a : core::axes())
        a->load(*this, cfg);
    return cfg;
}

RunRecord
recordFromReport(const core::TrainReport &report)
{
    RunRecord r;
    for (const core::Axis *a : core::axes())
        a->store(report.config, r);
    // Staged runs record the depth they ran, not the 0 that selects
    // numGpus.
    r.microbatches = report.microbatches;
    r.oom = report.oom;
    r.iterations = report.iterations;
    r.epochSeconds = report.epochSeconds;
    r.iterationSeconds = report.iterationSeconds;
    r.setupSeconds = report.setupSeconds;
    r.fpBpSeconds = report.fpBpSeconds;
    r.wuSeconds = report.wuSeconds;
    r.syncApiFraction = report.syncApiFraction;
    r.interGpuBytesPerIter = report.interGpuBytesPerIter;
    r.interNodeBytesPerIter = report.interNodeBytesPerIter;
    r.gpu0TrainingBytes = report.gpu0.training;
    r.gpuxTrainingBytes = report.gpux.training;
    r.preTrainingBytes = report.gpu0.preTraining;
    r.digest = report.digest;
    r.throughputImagesPerSec = report.throughputImagesPerSec;
    r.avgStaleness = report.avgStaleness;
    r.maxStaleness = report.maxStaleness;
    r.bubbleFraction = report.bubbleFraction;
    return r;
}

std::string
recordsToJson(const std::vector<RunRecord> &records)
{
    std::string out = "{\n  \"version\": 1,\n  \"records\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RunRecord &r = records[i];
        out += i == 0 ? "\n    {" : ",\n    {";
        for (const Field &f : fields()) {
            if (!f.inJson(r))
                continue;
            out += '"';
            out += f.json;
            out += "\": ";
            out += std::visit(
                [&](auto m) { return spell<Style::Json>(r, m); },
                f.member);
            out += f.lineEnd ? ",\n     " : ", ";
        }
        out += "\"digest\": \"" + fmtHex64(r.digest) + "\"}";
    }
    out += records.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

std::vector<RunRecord>
recordsFromJson(const std::string &text)
{
    const JsonValue doc = JsonValue::parse(text);
    const double version = doc.numberAt("version");
    if (version != 1)
        sim::fatal("unsupported results version ", version,
                   " (this build reads version 1)");
    std::vector<RunRecord> records;
    for (const JsonValue &v : doc.at("records").asArray())
        records.push_back(readRecord(v));
    return records;
}

std::string
recordsToCsv(const std::vector<RunRecord> &records)
{
    std::string out;
    for (const Field &f : fields()) {
        if (f.csv)
            out += std::string(f.json) + ",";
    }
    out += "digest\n";
    for (const RunRecord &r : records) {
        for (const Field &f : fields()) {
            if (f.csv) {
                out += std::visit(
                    [&](auto m) { return spell<Style::Csv>(r, m); },
                    f.member);
                out += ',';
            }
        }
        out += fmtHex64(r.digest) + "\n";
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        sim::fatal("cannot open ", path, " for writing");
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    const int rc = std::fclose(f);
    if (written != text.size() || rc != 0)
        sim::fatal("short write to ", path);
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        sim::fatal("cannot open ", path);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed)
        sim::fatal("read error on ", path);
    return out;
}

} // namespace dgxsim::campaign
