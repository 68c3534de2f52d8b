/**
 * @file
 * A minimal dense 2-D array.
 *
 * Used for DP score tables, wavefront maps, and clock-gating region
 * bookkeeping.  Row-major, bounds-checked in debug via rl_assert.
 */

#ifndef RACELOGIC_UTIL_GRID_H
#define RACELOGIC_UTIL_GRID_H

#include <utility>
#include <vector>

#include "rl/util/logging.h"

namespace racelogic::util {

/** Dense row-major rows x cols matrix of T. */
template <typename T>
class Grid
{
  public:
    Grid() = default;

    /** rows x cols cells, all initialized to `fill`. */
    Grid(size_t rows, size_t cols, const T &fill = T())
        : numRows(rows), numCols(cols), cells(rows * cols, fill)
    {}

    /** rows x cols cells taken over from `flat`, row-major. */
    Grid(size_t rows, size_t cols, std::vector<T> &&flat)
        : numRows(rows), numCols(cols), cells(std::move(flat))
    {
        rl_assert(cells.size() == rows * cols, "Grid of ", rows, "x", cols,
                  " built from ", cells.size(), " cells");
    }

    size_t rows() const { return numRows; }
    size_t cols() const { return numCols; }
    size_t size() const { return cells.size(); }
    bool empty() const { return cells.empty(); }

    T &
    at(size_t r, size_t c)
    {
        rl_assert(r < numRows && c < numCols, "Grid index (", r, ",", c,
                  ") out of ", numRows, "x", numCols);
        return cells[r * numCols + c];
    }

    const T &
    at(size_t r, size_t c) const
    {
        rl_assert(r < numRows && c < numCols, "Grid index (", r, ",", c,
                  ") out of ", numRows, "x", numCols);
        return cells[r * numCols + c];
    }

    T &operator()(size_t r, size_t c) { return at(r, c); }
    const T &operator()(size_t r, size_t c) const { return at(r, c); }

    /** Set every cell to `value`. */
    void
    fill(const T &value)
    {
        for (T &cell : cells)
            cell = value;
    }

    /** Flat row-major storage (for iteration / serialization). */
    const std::vector<T> &flat() const { return cells; }

    bool
    operator==(const Grid &other) const
    {
        return numRows == other.numRows && numCols == other.numCols &&
               cells == other.cells;
    }

  private:
    size_t numRows = 0;
    size_t numCols = 0;
    std::vector<T> cells;
};

} // namespace racelogic::util

#endif // RACELOGIC_UTIL_GRID_H
