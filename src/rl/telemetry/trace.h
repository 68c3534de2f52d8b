/**
 * @file
 * RequestTrace: per-request stage timestamps for the serve daemon.
 *
 * One trace rides alongside each request from the moment its frame
 * header has been parsed to the moment its response is flushed,
 * collecting steady-clock stamps at every stage boundary:
 *
 *   readStart ── body read ──▶ readDone (arrival)
 *            ── decode ──────▶ decodeDone
 *            ── admit ───────▶ admitDone        (budgets + tryPush)
 *            ── queue wait ──▶ dispatchStart    (a worker popped it)
 *            ── dispatch ────▶ solveStart       (job setup on the worker)
 *            ── solve ───────▶ solveDone        (the race)
 *            ── encode ──────▶ encodeDone       (response bytes built)
 *            ── write ───────▶ writeDone        (response flushed)
 *
 * Stage durations are differences of *consecutive* stamps, so they
 * are nonnegative by construction and their sum equals the
 * end-to-end latency exactly.  Requests that skip stages (inline
 * Stats/Ping, rejections, shed jobs) leave later stamps unset;
 * finalize() carries the last known stamp forward, turning skipped
 * stages into zero-length ones instead of garbage.
 *
 * The struct is plain data -- no locks, no allocation beyond the
 * stamps themselves -- because one lives on the stack / inside the
 * queued job for every request the daemon handles.
 */

#ifndef RACELOGIC_TELEMETRY_TRACE_H
#define RACELOGIC_TELEMETRY_TRACE_H

#include <chrono>
#include <cstdint>

namespace racelogic::telemetry {

struct RequestTrace {
    using Clock = std::chrono::steady_clock;
    using TimePoint = Clock::time_point;

    /** Wire id of the request (0 until decode succeeds). */
    uint32_t id = 0;

    /** Wire RequestTag as a raw byte (0 until decode succeeds). */
    uint8_t tag = 0;

    /** Wire Status of the response as a raw byte. */
    uint8_t status = 0;

    TimePoint readStart;     ///< frame header parsed, body read begins
    TimePoint readDone;      ///< body fully read (the arrival stamp)
    TimePoint decodeDone;    ///< decodeRequest returned
    TimePoint admitDone;     ///< budgets checked, job pushed (or bounced)
    TimePoint dispatchStart; ///< a worker popped the job
    TimePoint solveStart;    ///< the engine solve begins
    TimePoint solveDone;     ///< engine returned
    TimePoint encodeDone;    ///< response frame built
    TimePoint writeDone;     ///< response flushed to the socket

    /**
     * Carry the last set stamp forward through any unset (default)
     * stamps, in stage order.  After finalize() every duration below
     * is well-defined and nonnegative, and their sum is exactly
     * totalUs().
     */
    void
    finalize()
    {
        const TimePoint unset{};
        TimePoint last = readStart;
        for (TimePoint *stamp :
             {&readDone, &decodeDone, &admitDone, &dispatchStart,
              &solveStart, &solveDone, &encodeDone, &writeDone}) {
            if (*stamp == unset || *stamp < last)
                *stamp = last;
            last = *stamp;
        }
    }

    /** Microseconds from `from` to `to`, clamped at zero. */
    static uint64_t
    us(TimePoint from, TimePoint to)
    {
        if (to <= from)
            return 0;
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                to - from)
                .count());
    }

    uint64_t readUs() const { return us(readStart, readDone); }
    uint64_t decodeUs() const { return us(readDone, decodeDone); }
    uint64_t admitUs() const { return us(decodeDone, admitDone); }
    uint64_t queueWaitUs() const { return us(admitDone, dispatchStart); }
    uint64_t dispatchUs() const { return us(dispatchStart, solveStart); }
    uint64_t solveUs() const { return us(solveStart, solveDone); }
    uint64_t encodeUs() const { return us(solveDone, encodeDone); }
    uint64_t writeUs() const { return us(encodeDone, writeDone); }

    /** End-to-end: body read start to response flushed. */
    uint64_t totalUs() const { return us(readStart, writeDone); }
};

} // namespace racelogic::telemetry

#endif // RACELOGIC_TELEMETRY_TRACE_H
