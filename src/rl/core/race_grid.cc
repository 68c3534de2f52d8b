#include "rl/core/race_grid.h"

#include <sstream>

#include "rl/core/wavefront.h"
#include "rl/util/logging.h"
#include "rl/util/strings.h"

namespace racelogic::core {

size_t
wavefrontSizeOf(const util::Grid<sim::Tick> &arrival, sim::Tick cycle)
{
    size_t count = 0;
    for (sim::Tick t : arrival.flat())
        if (t == cycle)
            ++count;
    return count;
}

size_t
RaceGridResult::wavefrontSize(sim::Tick cycle) const
{
    return wavefrontSizeOf(arrival, cycle);
}

std::string
renderArrivalTable(const util::Grid<sim::Tick> &arrival)
{
    // Column width fits the largest finite arrival.
    sim::Tick largest = 0;
    for (sim::Tick t : arrival.flat())
        if (t != sim::kTickInfinity)
            largest = std::max(largest, t);
    int width = 1;
    for (sim::Tick v = largest; v >= 10; v /= 10)
        ++width;

    std::ostringstream os;
    for (size_t r = 0; r < arrival.rows(); ++r) {
        for (size_t c = 0; c < arrival.cols(); ++c) {
            sim::Tick t = arrival.at(r, c);
            if (c)
                os << ' ';
            if (t == sim::kTickInfinity)
                os << util::format("%*s", width, ".");
            else
                os << util::format("%*llu", width,
                                   static_cast<unsigned long long>(t));
        }
        os << '\n';
    }
    return os.str();
}

std::string
RaceGridResult::arrivalTable() const
{
    return renderArrivalTable(arrival);
}

std::string
renderWavefrontPicture(const util::Grid<sim::Tick> &arrival,
                       sim::Tick cycle)
{
    std::ostringstream os;
    for (size_t r = 0; r < arrival.rows(); ++r) {
        for (size_t c = 0; c < arrival.cols(); ++c) {
            sim::Tick t = arrival.at(r, c);
            if (t == cycle)
                os << 'o';
            else if (t < cycle)
                os << '#';
            else
                os << '.';
        }
        os << '\n';
    }
    return os.str();
}

std::string
RaceGridResult::wavefrontPicture(sim::Tick cycle) const
{
    return renderWavefrontPicture(arrival, cycle);
}

RaceGridAligner::RaceGridAligner(bio::ScoreMatrix matrix)
    : costMatrix(std::move(matrix))
{
    rl_assert(costMatrix.isCost(),
              "OR-type race grids minimize; pass a Cost matrix "
              "(convert similarity matrices via toShortestPathForm)");
    rl_assert(costMatrix.minFinite() >= 1,
              "race-grid weights must be >= 1 clock cycle");
}

RaceGridResult
RaceGridAligner::align(const bio::Sequence &a,
                       const bio::Sequence &b) const
{
    RaceGridResult result =
        raceEditGrid(a, b, costMatrix, sim::kTickInfinity);
    rl_assert(result.completed,
              "sink never fired; gap weights should guarantee a path");
    return result;
}

RaceGridResult
RaceGridAligner::align(const bio::Sequence &a, const bio::Sequence &b,
                       sim::Tick horizon) const
{
    return raceEditGrid(a, b, costMatrix, horizon);
}

RaceGridResult
RaceGridAligner::align(const bio::Sequence &a, const bio::Sequence &b,
                       sim::Tick horizon, RaceGridScratch &scratch,
                       const CancelToken *cancel,
                       KernelCounters *counters, bool arrivals) const
{
    return raceEditGrid(a, b, costMatrix, horizon, scratch, cancel,
                        counters, arrivals);
}

} // namespace racelogic::core
