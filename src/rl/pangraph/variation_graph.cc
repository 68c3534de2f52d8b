#include "rl/pangraph/variation_graph.h"

#include <algorithm>

#include "rl/util/fnv.h"
#include "rl/util/logging.h"

namespace racelogic::pangraph {

VariationGraph::VariationGraph(bio::Alphabet alphabet)
    : alphabet_(std::move(alphabet))
{}

void
VariationGraph::checkSegment(SegmentId id) const
{
    rl_assert(id < segments_.size(), "segment id ", id, " out of range (",
              segments_.size(), " segments)");
}

SegmentId
VariationGraph::addSegment(std::string name, bio::Sequence label)
{
    return tryAddSegment(std::move(name), std::move(label))
        .valueOrFatal();
}

Expected<SegmentId>
VariationGraph::tryAddSegment(std::string name, bio::Sequence label)
{
    if (name.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "variation-graph segment needs a "
                             "non-empty name");
    if (byName.count(name))
        return Status::error(ErrorCode::InvalidArgument,
                             "duplicate segment name '", name, "'");
    if (label.empty())
        return Status::error(ErrorCode::InvalidArgument, "segment '",
                             name, "' has an empty label; the race "
                             "substrate has no epsilon nodes");
    if (!(label.alphabet() == alphabet_))
        return Status::error(ErrorCode::InvalidArgument, "segment '",
                             name, "' label uses alphabet ",
                             label.alphabet().letters(), ", graph uses ",
                             alphabet_.letters());
    SegmentId id = static_cast<SegmentId>(segments_.size());
    byName.emplace(name, id);
    segments_.push_back(Segment{std::move(name), std::move(label)});
    outAdjacency.emplace_back();
    inAdjacency.emplace_back();
    fingerprint_.reset();
    return id;
}

void
VariationGraph::addLink(SegmentId from, SegmentId to)
{
    checkSegment(from);
    checkSegment(to);
    std::vector<SegmentId> &out = outAdjacency[from];
    if (std::find(out.begin(), out.end(), to) != out.end())
        return; // GFA files commonly list a link twice
    out.push_back(to);
    inAdjacency[to].push_back(from);
    ++links_;
    fingerprint_.reset();
}

const Segment &
VariationGraph::segment(SegmentId id) const
{
    checkSegment(id);
    return segments_[id];
}

SegmentId
VariationGraph::findSegment(const std::string &name) const
{
    auto found = byName.find(name);
    return found == byName.end() ? kNoSegment : found->second;
}

const std::vector<SegmentId> &
VariationGraph::outLinks(SegmentId id) const
{
    checkSegment(id);
    return outAdjacency[id];
}

const std::vector<SegmentId> &
VariationGraph::inLinks(SegmentId id) const
{
    checkSegment(id);
    return inAdjacency[id];
}

std::vector<SegmentId>
VariationGraph::sources() const
{
    std::vector<SegmentId> out;
    for (SegmentId id = 0; id < segments_.size(); ++id)
        if (inAdjacency[id].empty())
            out.push_back(id);
    return out;
}

std::vector<SegmentId>
VariationGraph::sinks() const
{
    std::vector<SegmentId> out;
    for (SegmentId id = 0; id < segments_.size(); ++id)
        if (outAdjacency[id].empty())
            out.push_back(id);
    return out;
}

size_t
VariationGraph::totalLabelLength() const
{
    size_t total = 0;
    for (const Segment &s : segments_)
        total += s.label.size();
    return total;
}

bool
VariationGraph::isAcyclic() const
{
    // Kahn's algorithm: the graph is acyclic iff every segment drains.
    std::vector<size_t> remaining(segments_.size());
    std::vector<SegmentId> ready;
    for (SegmentId id = 0; id < segments_.size(); ++id) {
        remaining[id] = inAdjacency[id].size();
        if (remaining[id] == 0)
            ready.push_back(id);
    }
    size_t drained = 0;
    while (!ready.empty()) {
        SegmentId id = ready.back();
        ready.pop_back();
        ++drained;
        for (SegmentId next : outAdjacency[id])
            if (--remaining[next] == 0)
                ready.push_back(next);
    }
    return drained == segments_.size();
}

void
VariationGraph::validate() const
{
    checkValid().orFatal();
}

Status
VariationGraph::checkValid() const
{
    if (segments_.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "variation graph has no segments");
    if (!isAcyclic())
        return Status::error(ErrorCode::Unsupported,
                             "variation graph contains a cycle; Race "
                             "Logic races DAGs only (a cycle would "
                             "race forever) -- DAG-ify the pangenome "
                             "upstream");
    if (sources().empty() || sinks().empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "variation graph needs at least one "
                             "source and one sink segment");
    return Status();
}

std::vector<SegmentId>
VariationGraph::topologicalOrder() const
{
    const size_t n = segments_.size();
    std::vector<size_t> remaining(n);
    // Binary min-heap over ready ids: smallest-id-first makes the
    // order deterministic in O((V + E) log V).
    std::vector<SegmentId> heap;
    auto cmp = [](SegmentId a, SegmentId b) { return a > b; };
    for (SegmentId id = 0; id < n; ++id) {
        remaining[id] = inAdjacency[id].size();
        if (remaining[id] == 0)
            heap.push_back(id);
    }
    std::make_heap(heap.begin(), heap.end(), cmp);
    std::vector<SegmentId> order;
    order.reserve(n);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), cmp);
        SegmentId id = heap.back();
        heap.pop_back();
        order.push_back(id);
        for (SegmentId next : outAdjacency[id]) {
            if (--remaining[next] == 0) {
                heap.push_back(next);
                std::push_heap(heap.begin(), heap.end(), cmp);
            }
        }
    }
    rl_assert(order.size() == n,
              "topologicalOrder on a cyclic graph; call validate() "
              "first");
    return order;
}

std::pair<size_t, size_t>
VariationGraph::spelledLengthRange() const
{
    constexpr size_t kUnset = ~size_t(0);
    const std::vector<SegmentId> order = topologicalOrder();
    std::vector<size_t> shortest(segments_.size(), kUnset);
    std::vector<size_t> longest(segments_.size(), kUnset);
    for (SegmentId id : order) {
        size_t lo = kUnset, hi = kUnset;
        if (inAdjacency[id].empty()) {
            lo = hi = 0;
        } else {
            for (SegmentId pred : inAdjacency[id]) {
                if (shortest[pred] == kUnset)
                    continue;
                lo = std::min(lo == kUnset ? ~size_t(0) : lo,
                              shortest[pred]);
                hi = hi == kUnset ? longest[pred]
                                  : std::max(hi, longest[pred]);
            }
        }
        if (lo == kUnset)
            continue; // unreachable from any source
        shortest[id] = lo + segments_[id].label.size();
        longest[id] = hi + segments_[id].label.size();
    }
    size_t lo = kUnset, hi = 0;
    for (SegmentId id : sinks()) {
        if (shortest[id] == kUnset)
            continue;
        lo = std::min(lo, shortest[id]);
        hi = std::max(hi, longest[id]);
    }
    rl_assert(lo != kUnset, "no source-to-sink walk exists");
    return {lo, hi};
}

uint64_t
VariationGraph::fingerprint() const
{
    return fingerprint_.get([this] {
        util::Fnv f;
        for (char c : alphabet_.letters())
            f.mix(static_cast<uint64_t>(c));
        f.mix(segments_.size());
        for (const Segment &s : segments_) {
            f.mix(s.label.size());
            for (bio::Symbol sym : s.label.symbols())
                f.mix(sym);
        }
        f.mix(links_);
        for (SegmentId id = 0; id < segments_.size(); ++id)
            for (SegmentId to : outAdjacency[id]) {
                f.mix(id);
                f.mix(to);
            }
        return f.h;
    });
}

bool
sameTopology(const VariationGraph &lhs, const VariationGraph &rhs)
{
    if (!(lhs.alphabet() == rhs.alphabet()) ||
        lhs.segmentCount() != rhs.segmentCount() ||
        lhs.linkCount() != rhs.linkCount())
        return false;
    for (SegmentId id = 0; id < lhs.segmentCount(); ++id) {
        if (!(lhs.segment(id).label == rhs.segment(id).label))
            return false;
        if (lhs.outLinks(id) != rhs.outLinks(id))
            return false;
    }
    return true;
}

} // namespace racelogic::pangraph
