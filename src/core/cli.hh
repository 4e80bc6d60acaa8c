/**
 * @file
 * Minimal command-line parsing for the dgxprof tool: positional
 * arguments plus `--key value` / `--key=value` options and boolean
 * flags. Lives in the library so it is unit-testable; the
 * configuration knobs themselves parse through core/axes.hh.
 */

#ifndef DGXSIM_CORE_CLI_HH
#define DGXSIM_CORE_CLI_HH

#include <map>
#include <string>
#include <vector>

namespace dgxsim::core::cli {

/** Parsed command line. */
class Args
{
  public:
    /**
     * Parse tokens (argv[1..]). `--key value` and `--key=value` both
     * set options; a `--key` followed by another option or nothing
     * becomes a boolean flag. Everything else is positional.
     */
    static Args parse(const std::vector<std::string> &tokens);

    /** @return positional arguments in order. */
    const std::vector<std::string> &positional() const { return pos_; }

    /** @return true if --name was given (with or without a value). */
    bool has(const std::string &name) const;

    /** @return the option's value or @p fallback. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** @return the option parsed as int (fatal on garbage). */
    int getInt(const std::string &name, int fallback) const;

    /** @return the option parsed as double (fatal on garbage). */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * @return a comma-separated option as an int list, e.g.
     * "--gpus 1,2,4" -> {1,2,4}.
     */
    std::vector<int> getIntList(const std::string &name,
                                const std::vector<int> &fallback) const;

    /**
     * @return a comma-separated option as a string list, e.g.
     * "--model lenet,alexnet" -> {"lenet", "alexnet"}.
     */
    std::vector<std::string>
    getList(const std::string &name,
            const std::vector<std::string> &fallback) const;

  private:
    std::vector<std::string> pos_;
    std::map<std::string, std::string> opts_;
};

/** @return the non-empty items of comma-separated @p text. */
std::vector<std::string> splitList(const std::string &text);

} // namespace dgxsim::core::cli

#endif // DGXSIM_CORE_CLI_HH
