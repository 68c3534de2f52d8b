#include "rl/api/result.h"

#include <sstream>

#include "rl/core/race_grid.h"

namespace racelogic::api {

const char *
backendKindName(BackendKind backend)
{
    switch (backend) {
    case BackendKind::Behavioral: return "behavioral";
    case BackendKind::GateLevel: return "gate-level";
    case BackendKind::Systolic: return "systolic";
    }
    return "unknown";
}

core::RaceGridResult
RaceResult::gridDetail() const
{
    core::RaceGridResult view;
    view.score = racedCost;
    view.completed = completed;
    view.cancelled = cancelled;
    view.latencyCycles = latencyCycles;
    view.arrival = arrival;
    view.cellsFired = cellsFired;
    view.events = events;
    return view;
}

size_t
RaceResult::wavefrontSize(sim::Tick cycle) const
{
    return core::wavefrontSizeOf(arrival, cycle);
}

std::string
RaceResult::arrivalTable() const
{
    if (arrival.rows() == 0)
        return "";
    return core::renderArrivalTable(arrival);
}

std::string
RaceResult::wavefrontPicture(sim::Tick cycle) const
{
    if (arrival.rows() == 0)
        return "";
    return core::renderWavefrontPicture(arrival, cycle);
}

std::string
RaceResult::describe() const
{
    std::ostringstream out;
    out << problemKindName(kind) << " [" << backendKindName(backend)
        << "]: ";
    if (!completed) {
        out << "aborted after " << cyclesUsed << " cycles (score > "
            << "threshold)";
    } else {
        out << "score " << score << " in " << latencyCycles
            << " cycles";
        if (!accepted)
            out << " (rejected by threshold)";
    }
    if (estimate && estimate->wallTimeNs > 0.0) {
        out << ", " << estimate->wallTimeNs << " ns";
        if (estimate->energyJ > 0.0)
            out << ", " << estimate->energyJ * 1e12 << " pJ";
    }
    return out.str();
}

} // namespace racelogic::api
