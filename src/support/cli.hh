/**
 * @file
 * A tiny `--flag value` command-line parser shared by the bench and
 * example binaries.  Keeps harnesses dependency-free.
 */

#ifndef CXL_SUPPORT_CLI_HH
#define CXL_SUPPORT_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cxl
{

/**
 * Parses `--name value` and bare `--name` (boolean) options.
 * Unknown options are collected so harnesses can reject typos.
 */
class CliArgs
{
  public:
    CliArgs(int argc, const char *const *argv);

    /** True if `--name` appeared (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of `--name`, or @p fallback if absent. */
    std::string get(const std::string &name,
                    const std::string &fallback) const;

    /** Integer value of `--name`, or @p fallback if absent. */
    std::int64_t getInt(const std::string &name,
                        std::int64_t fallback) const;

    /** Positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

/**
 * Resolve the shared `--threads N` option used by the bench and
 * example harnesses to size the parallel explorer: 0 (the default)
 * means one worker per hardware thread; a negative count is a usage
 * error (exit 2).
 */
std::size_t threadCountOption(const CliArgs &args,
                              std::size_t fallback = 0);

/**
 * Resolve the shared `--devices N` option selecting the active
 * device count of the model.  Exits with code 2 (printing the
 * offending value) on anything outside [1, max_devices] rather than
 * silently clamping; callers pass kMaxDevices.
 */
int deviceCountOption(const CliArgs &args, int max_devices,
                      int fallback = 2);

} // namespace cxl

#endif // CXL_SUPPORT_CLI_HH
