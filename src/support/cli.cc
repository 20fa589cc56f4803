#include "support/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace cxl
{

CliArgs::CliArgs(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value = "1";
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        options_[name] = value;
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return options_.count(name) != 0;
}

std::string
CliArgs::get(const std::string &name, const std::string &fallback) const
{
    auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t fallback) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        return fallback;
    // strtoll with a discarded end pointer silently turns garbage
    // into 0 ("--devices foo" ran the 0-device model); reject
    // non-numeric, trailing-junk and out-of-range values with a
    // diagnostic that names the offending flag.
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr,
                     "--%s '%s' is not a valid integer\n",
                     name.c_str(), text);
        std::exit(2);
    }
    return value;
}

std::size_t
threadCountOption(const CliArgs &args, std::size_t fallback)
{
    const std::int64_t n =
        args.getInt("threads", static_cast<std::int64_t>(fallback));
    if (n < 0) {
        std::fprintf(stderr, "--threads %lld out of range (want >= 0)\n",
                     static_cast<long long>(n));
        std::exit(2);
    }
    return static_cast<std::size_t>(n);
}

int
deviceCountOption(const CliArgs &args, int max_devices, int fallback)
{
    const std::int64_t n = args.getInt("devices", fallback);
    if (n < 1 || n > max_devices) {
        std::fprintf(stderr,
                     "--devices %lld out of range (want 1..%d)\n",
                     static_cast<long long>(n), max_devices);
        std::exit(2);
    }
    return static_cast<int>(n);
}

} // namespace cxl
