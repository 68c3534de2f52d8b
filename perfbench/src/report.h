/**
 * @file
 * Command line, statistics and the result line shared by both
 * benchmark binaries.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/** `--workload W --seed N --seconds S --dir D` */
struct Args {
    Kind kind = Kind::PairwiseFull;
    uint64_t seed = 1;
    double seconds = 10.0;
    std::string dir; ///< scratch directory for inputs, socket and logs
};

/** Parse the arguments; prints usage and exits 2 on a bad one. */
Args parseArgs(int argc, char **argv);

/** Linear-interpolated quantile, q in [0, 1] (0 when empty). */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Upper minus lower quartile. */
double iqr(const std::vector<double> &values);

/** Metrics collected by one run, printed in the order added. */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** One aligned `name value unit` line per metric. */
    void printTable() const;

    /**
     * The result object, as the last line of standard output:
     * correct, attempted, failed and every metric with its unit.
     */
    void printResult(bool correct, uint64_t attempted,
                     uint64_t failed) const;

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
};

/** One `build: {...}` line naming the build type, flags and compiler. */
void printBuildInfo();

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
