#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "daemon.h"

namespace perfbench {

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload pairwise-full|screen-short|graph-map"
                 " --seed N --seconds S --dir SCRATCH_DIR\n",
                 argv0);
    std::exit(2);
}

/** A JSON number with every digit; non-finite values become 0. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveKind = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            const std::optional<Kind> kind = parseKind(value);
            if (!kind) {
                std::fprintf(stderr, "%s: unknown workload '%s'\n",
                             argv[0], value.c_str());
                std::exit(2);
            }
            args.kind = *kind;
            haveKind = true;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (arg == "--dir") {
            args.dir = value;
        } else {
            usage(argv[0]);
        }
    }
    if (!haveKind || args.dir.empty() || !(args.seconds > 0))
        usage(argv[0]);
    return args;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
iqr(const std::vector<double> &values)
{
    return quantile(values, 0.75) - quantile(values, 0.25);
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Report::printTable() const
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
Report::printResult(bool correct, uint64_t attempted, uint64_t failed) const
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
printBuildInfo()
{
    std::printf("build: {\"type\": \"%s\", \"cxx_flags\": \"%s\", "
                "\"compiler\": \"%s\", \"daemon\": \"%s\"}\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER,
                daemonBinary());
}

} // namespace perfbench
