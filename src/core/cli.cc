#include "core/cli.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "sim/logging.hh"

namespace dgxsim::core::cli {

Args
Args::parse(const std::vector<std::string> &tokens)
{
    Args args;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &token = tokens[i];
        if (token.rfind("--", 0) != 0) {
            args.pos_.push_back(token);
            continue;
        }
        const std::string body = token.substr(2);
        const std::size_t eq = body.find('=');
        if (eq != std::string::npos) {
            args.opts_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // `--key value` unless the next token is another option.
        if (i + 1 < tokens.size() &&
            tokens[i + 1].rfind("--", 0) != 0) {
            args.opts_[body] = tokens[++i];
        } else {
            args.opts_[body] = "";
        }
    }
    return args;
}

bool
Args::has(const std::string &name) const
{
    return opts_.count(name) != 0;
}

std::string
Args::get(const std::string &name, const std::string &fallback) const
{
    auto it = opts_.find(name);
    return it == opts_.end() ? fallback : it->second;
}

int
Args::getInt(const std::string &name, int fallback) const
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        sim::fatal("--", name, " expects an integer, got '",
                   it->second, "'");
    if (errno == ERANGE || value < INT_MIN || value > INT_MAX)
        sim::fatal("--", name, " ", it->second, " is out of range");
    return static_cast<int>(value);
}

double
Args::getDouble(const std::string &name, double fallback) const
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        sim::fatal("--", name, " expects a number, got '", it->second,
                   "'");
    return value;
}

std::vector<int>
Args::getIntList(const std::string &name,
                 const std::vector<int> &fallback) const
{
    if (!has(name))
        return fallback;
    std::vector<int> out;
    for (const std::string &item : getList(name, {})) {
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(item.c_str(), &end, 10);
        if (end == item.c_str() || *end != '\0' || errno == ERANGE ||
            v < INT_MIN || v > INT_MAX) {
            sim::fatal("--", name, " expects comma-separated integers, "
                       "got '", get(name), "'");
        }
        out.push_back(static_cast<int>(v));
    }
    return out;
}

std::vector<std::string>
Args::getList(const std::string &name,
              const std::vector<std::string> &fallback) const
{
    if (!has(name))
        return fallback;
    std::vector<std::string> out = splitList(get(name));
    if (out.empty())
        sim::fatal("--", name, " expects at least one value");
    return out;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    for (std::size_t start = 0; start <= text.size();) {
        const std::size_t comma = std::min(text.find(',', start), text.size());
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace dgxsim::core::cli
