#include "rl/serve/wire.h"

#include <cstring>

#include "rl/bio/fasta.h"
#include "rl/core/wavefront.h"

namespace racelogic::serve {

// Every request the decoder accepts must pass library validation (the
// fuzz harness's "decode accepts => validate accepts" invariant), so
// the wire caps stay inside the race's delay cap: a DTW lattice weight
// is the distance of two samples, and a matrix or affine gap weight is
// at most kMaxWireWeight.
static_assert(2 * kMaxWireSample <= core::kMaxWavefrontWeight,
              "wire DTW samples may differ by more than a race delay");
static_assert(kMaxWireWeight <= core::kMaxWavefrontWeight,
              "wire weights may exceed a race delay");

namespace {

// ------------------------------------------------------------ byte IO

/** Append-only little-endian writer. */
class Writer
{
  public:
    explicit Writer(std::vector<uint8_t> &out) : bytes(out) {}

    void
    u8(uint8_t v)
    {
        bytes.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    i64(int64_t v)
    {
        u64(static_cast<uint64_t>(v));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes.insert(bytes.end(), s.begin(), s.end());
    }

  private:
    std::vector<uint8_t> &bytes;
};

/**
 * Bounds-checked little-endian reader.  Every read reports
 * truncation instead of walking off the payload, so a hostile frame
 * can never index out of bounds.
 */
class Reader
{
  public:
    explicit Reader(const std::vector<uint8_t> &in) : bytes(in) {}

    bool
    u8(uint8_t &v)
    {
        if (pos + 1 > bytes.size())
            return false;
        v = bytes[pos++];
        return true;
    }

    bool
    u32(uint32_t &v)
    {
        if (pos + 4 > bytes.size())
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(bytes[pos++]) << (8 * i);
        return true;
    }

    bool
    u64(uint64_t &v)
    {
        if (pos + 8 > bytes.size())
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(bytes[pos++]) << (8 * i);
        return true;
    }

    bool
    i64(int64_t &v)
    {
        uint64_t raw;
        if (!u64(raw))
            return false;
        std::memcpy(&v, &raw, sizeof v);
        return true;
    }

    /** Length-prefixed string, capped so a lying prefix truncates. */
    bool
    str(std::string &s, uint32_t maxLength)
    {
        uint32_t n;
        if (!u32(n))
            return false;
        if (n > maxLength || pos + n > bytes.size())
            return false;
        s.assign(reinterpret_cast<const char *>(bytes.data() + pos), n);
        pos += n;
        return true;
    }

    bool
    done() const
    {
        return pos == bytes.size();
    }

  private:
    const std::vector<uint8_t> &bytes;
    size_t pos = 0;
};

// --------------------------------------------------- matrix round-trip

/** Serialize a cost matrix: alphabet letters + (N+1)^2 weight table. */
void
writeMatrix(Writer &w, const bio::ScoreMatrix &m)
{
    w.str(m.alphabet().letters());
    const size_t n = m.alphabet().size();
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            w.i64(m.pair(static_cast<bio::Symbol>(i),
                         static_cast<bio::Symbol>(j)));
    for (size_t i = 0; i < n; ++i)
        w.i64(m.gap(static_cast<bio::Symbol>(i)));
}

/**
 * Read and validate an inline cost matrix.  `finitePairs` additionally
 * forbids infinite pair weights (the affine lattice bakes pair costs
 * into edges, so they must exist).  Validation is the library's own
 * rule book -- Alphabet::tryMake() for the letters,
 * ScoreMatrix::validateRaceReady() under the wire's weight cap --
 * mapped mechanically onto WireError, so decode and the engine's
 * preconditions cannot drift apart.  Returns None / Truncated /
 * BadRequest.
 */
WireError
readMatrix(Reader &r, bool finitePairs, std::optional<bio::ScoreMatrix> &out)
{
    std::string letters;
    if (!r.str(letters, kMaxWireAlphabet))
        return WireError::Truncated;
    auto alphabet = bio::Alphabet::tryMake(letters);
    if (!alphabet.ok())
        return wireErrorForCode(alphabet.status().code());

    const size_t n = letters.size();
    std::vector<int64_t> pairs(n * n);
    for (int64_t &p : pairs)
        if (!r.i64(p))
            return WireError::Truncated;
    std::vector<int64_t> gaps(n);
    for (int64_t &g : gaps)
        if (!r.i64(g))
            return WireError::Truncated;

    bio::ScoreMatrix m(std::move(alphabet.value()), bio::ScoreKind::Cost);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j)
            m.setPair(static_cast<bio::Symbol>(i),
                      static_cast<bio::Symbol>(j), pairs[i * n + j]);
        m.setGap(static_cast<bio::Symbol>(i), gaps[i]);
    }
    if (racelogic::Status ready = m.validateRaceReady(
            kMaxWireWeight, /*allowForbiddenPairs=*/!finitePairs);
        !ready.ok())
        return wireErrorForCode(ready.code());
    out.emplace(std::move(m));
    return WireError::None;
}

/**
 * Read a sequence string and encode it over `alphabet` via the
 * library's strict Sequence::tryEncode() (exact-match letters: the
 * protocol is strict upper-case; clients fold).
 */
WireError
readSequence(Reader &r, const bio::Alphabet &alphabet, bool allowEmpty,
             std::optional<bio::Sequence> &out)
{
    std::string text;
    if (!r.str(text, kMaxWireSequence))
        return WireError::Truncated;
    if (text.empty() && !allowEmpty)
        return WireError::BadRequest;
    auto encoded = bio::Sequence::tryEncode(alphabet, text);
    if (!encoded.ok())
        return wireErrorForCode(encoded.status().code());
    out.emplace(std::move(encoded.value()));
    return WireError::None;
}

/** Finite threshold in [0, kScoreInfinity), or the sentinel. */
bool
validThreshold(int64_t t, bool sentinelAllowed)
{
    if (t == bio::kScoreInfinity)
        return sentinelAllowed;
    return t >= 0 && t < bio::kScoreInfinity;
}

WireError
readSignal(Reader &r, std::vector<apps::Sample> &out)
{
    uint32_t n;
    if (!r.u32(n))
        return WireError::Truncated;
    if (n == 0 || n > kMaxWireSamples)
        return WireError::BadRequest;
    out.resize(n);
    for (apps::Sample &s : out) {
        if (!r.i64(s))
            return WireError::Truncated;
        if (s < -kMaxWireSample || s > kMaxWireSample)
            return WireError::BadRequest;
    }
    return WireError::None;
}

/**
 * Parse an untrusted MapReads FASTA payload with the ONE shared
 * bio::fasta parser, caps set to the protocol's admission limits.
 * Structural faults (ParseError), foreign letters (InvalidArgument)
 * and over-cap records (Oversized) come back as the library's typed
 * Status and map mechanically onto WireError; an empty batch is a
 * BadRequest of the wire's own (a daemon race of zero reads is a
 * client bug, not a file-format question).
 */
WireError
readFastaBatch(const std::string &text, const bio::Alphabet &alphabet,
               std::vector<bio::Sequence> &out)
{
    bio::FastaLimits limits;
    limits.maxSequenceLength = kMaxWireSequence;
    auto records = bio::tryReadFasta(text, alphabet, limits);
    if (!records.ok())
        return wireErrorForCode(records.status().code());
    if (records.value().empty())
        return WireError::BadRequest;
    out.reserve(records.value().size());
    for (bio::FastaRecord &record : records.value())
        out.push_back(std::move(record.sequence));
    return WireError::None;
}

/** Start a request payload: id + tag + deadline (ms) + priority. */
std::vector<uint8_t>
requestHeader(uint32_t id, RequestTag tag, uint32_t deadlineMs,
              Priority priority = Priority::Normal)
{
    std::vector<uint8_t> payload;
    Writer w(payload);
    w.u32(id);
    w.u8(static_cast<uint8_t>(tag));
    w.u32(deadlineMs);
    w.u8(static_cast<uint8_t>(priority));
    return payload;
}

} // namespace

const char *
wireErrorName(WireError error)
{
    switch (error) {
    case WireError::None: return "none";
    case WireError::Truncated: return "truncated";
    case WireError::Oversized: return "oversized";
    case WireError::UnknownKind: return "unknown-kind";
    case WireError::BadRequest: return "bad-request";
    }
    return "unknown";
}

const char *
statusName(Status status)
{
    switch (status) {
    case Status::Ok: return "ok";
    case Status::QueueFull: return "queue-full";
    case Status::Oversized: return "oversized";
    case Status::BadRequest: return "bad-request";
    case Status::ShuttingDown: return "shutting-down";
    case Status::DeadlineExceeded: return "deadline-exceeded";
    case Status::ResourceExhausted: return "resource-exhausted";
    }
    return "unknown";
}

const char *
priorityName(Priority priority)
{
    switch (priority) {
    case Priority::Batch: return "batch";
    case Priority::Normal: return "normal";
    case Priority::Interactive: return "interactive";
    }
    return "unknown";
}

const char *
healthStateName(HealthState state)
{
    switch (state) {
    case HealthState::Ready: return "ready";
    case HealthState::Draining: return "draining";
    case HealthState::Brownout: return "brownout";
    }
    return "unknown";
}

Status
statusForCode(ErrorCode code)
{
    switch (code) {
    case ErrorCode::Ok: return Status::Ok;
    case ErrorCode::InvalidArgument: return Status::BadRequest;
    case ErrorCode::ParseError: return Status::BadRequest;
    case ErrorCode::Unsupported: return Status::BadRequest;
    case ErrorCode::NotFound: return Status::BadRequest;
    case ErrorCode::Oversized: return Status::Oversized;
    case ErrorCode::ResourceExhausted: return Status::ResourceExhausted;
    }
    return Status::BadRequest;
}

WireError
wireErrorForCode(ErrorCode code)
{
    switch (code) {
    case ErrorCode::Ok: return WireError::None;
    case ErrorCode::InvalidArgument: return WireError::BadRequest;
    case ErrorCode::ParseError: return WireError::BadRequest;
    case ErrorCode::Unsupported: return WireError::BadRequest;
    case ErrorCode::NotFound: return WireError::BadRequest;
    case ErrorCode::Oversized: return WireError::Oversized;
    // Compute budgets are checked after decode, but the mapping is
    // total so call sites never need a judgment call.
    case ErrorCode::ResourceExhausted: return WireError::Oversized;
    }
    return WireError::BadRequest;
}

const char *
requestTagName(RequestTag tag)
{
    switch (tag) {
    case RequestTag::Pairwise: return "pairwise";
    case RequestTag::Affine: return "affine";
    case RequestTag::Dtw: return "dtw";
    case RequestTag::Screen: return "screen";
    case RequestTag::GraphAlign: return "graph-align";
    case RequestTag::MapReads: return "map-reads";
    case RequestTag::Stats: return "stats";
    case RequestTag::Ping: return "ping";
    case RequestTag::Metrics: return "metrics";
    case RequestTag::Health: return "health";
    }
    return "unknown";
}

std::vector<uint8_t>
encodePairwise(uint32_t id, const bio::ScoreMatrix &costs,
               const std::string &a, const std::string &b,
               uint32_t deadlineMs, Priority priority)
{
    auto payload =
        requestHeader(id, RequestTag::Pairwise, deadlineMs, priority);
    Writer w(payload);
    writeMatrix(w, costs);
    w.str(a);
    w.str(b);
    return payload;
}

std::vector<uint8_t>
encodeScreen(uint32_t id, const bio::ScoreMatrix &costs,
             bio::Score threshold, const std::string &a,
             const std::string &b, uint32_t deadlineMs, Priority priority)
{
    auto payload =
        requestHeader(id, RequestTag::Screen, deadlineMs, priority);
    Writer w(payload);
    writeMatrix(w, costs);
    w.i64(threshold);
    w.str(a);
    w.str(b);
    return payload;
}

std::vector<uint8_t>
encodeAffine(uint32_t id, const bio::ScoreMatrix &costs, bio::Score open,
             bio::Score extend, const std::string &a, const std::string &b,
             uint32_t deadlineMs, Priority priority)
{
    auto payload =
        requestHeader(id, RequestTag::Affine, deadlineMs, priority);
    Writer w(payload);
    writeMatrix(w, costs);
    w.i64(open);
    w.i64(extend);
    w.str(a);
    w.str(b);
    return payload;
}

std::vector<uint8_t>
encodeDtw(uint32_t id, const std::vector<apps::Sample> &x,
          const std::vector<apps::Sample> &y, uint32_t deadlineMs,
          Priority priority)
{
    auto payload = requestHeader(id, RequestTag::Dtw, deadlineMs, priority);
    Writer w(payload);
    w.u32(static_cast<uint32_t>(x.size()));
    for (apps::Sample s : x)
        w.i64(s);
    w.u32(static_cast<uint32_t>(y.size()));
    for (apps::Sample s : y)
        w.i64(s);
    return payload;
}

std::vector<uint8_t>
encodeGraphAlign(uint32_t id, const std::string &read,
                 bio::Score threshold, uint32_t deadlineMs,
                 Priority priority)
{
    auto payload =
        requestHeader(id, RequestTag::GraphAlign, deadlineMs, priority);
    Writer w(payload);
    w.i64(threshold);
    w.str(read);
    return payload;
}

std::vector<uint8_t>
encodeMapReads(uint32_t id, const std::string &fasta, bio::Score threshold,
               uint32_t deadlineMs, Priority priority)
{
    auto payload =
        requestHeader(id, RequestTag::MapReads, deadlineMs, priority);
    Writer w(payload);
    w.i64(threshold);
    w.str(fasta);
    return payload;
}

std::vector<uint8_t>
encodeStatsRequest(uint32_t id)
{
    return requestHeader(id, RequestTag::Stats, 0);
}

std::vector<uint8_t>
encodePing(uint32_t id)
{
    return requestHeader(id, RequestTag::Ping, 0);
}

std::vector<uint8_t>
encodeMetricsRequest(uint32_t id)
{
    return requestHeader(id, RequestTag::Metrics, 0);
}

std::vector<uint8_t>
encodeHealthRequest(uint32_t id)
{
    return requestHeader(id, RequestTag::Health, 0);
}

WireError
decodeRequest(const std::vector<uint8_t> &payload,
              const bio::Alphabet &graphAlphabet, Request &out)
{
    out = Request{};
    Reader r(payload);
    if (!r.u32(out.id))
        return WireError::Truncated;
    uint8_t tag;
    if (!r.u8(tag))
        return WireError::Truncated;
    if (tag < static_cast<uint8_t>(RequestTag::Pairwise) ||
        tag > static_cast<uint8_t>(RequestTag::Health))
        return WireError::UnknownKind;
    out.tag = static_cast<RequestTag>(tag);
    if (!r.u32(out.deadlineMs))
        return WireError::Truncated;
    uint8_t priority;
    if (!r.u8(priority))
        return WireError::Truncated;
    if (priority > static_cast<uint8_t>(Priority::Interactive))
        return WireError::BadRequest;
    out.priority = static_cast<Priority>(priority);

    switch (out.tag) {
    case RequestTag::Pairwise:
    case RequestTag::Screen:
    case RequestTag::Affine: {
        const bool affine = out.tag == RequestTag::Affine;
        if (WireError e = readMatrix(r, /*finitePairs=*/affine, out.matrix);
            e != WireError::None)
            return e;
        if (out.tag == RequestTag::Screen) {
            if (!r.i64(out.threshold))
                return WireError::Truncated;
            if (!validThreshold(out.threshold, /*sentinelAllowed=*/false))
                return WireError::BadRequest;
        }
        if (affine) {
            if (!r.i64(out.open) || !r.i64(out.extend))
                return WireError::Truncated;
            if (out.extend < 1 || out.open < out.extend ||
                out.open > kMaxWireWeight)
                return WireError::BadRequest;
        }
        const bio::Alphabet &alphabet = out.matrix->alphabet();
        // Affine lattices index symbols pairwise, so both strings
        // must be non-empty; the grid kernel handles empty sides.
        if (WireError e =
                readSequence(r, alphabet, /*allowEmpty=*/!affine, out.a);
            e != WireError::None)
            return e;
        if (WireError e =
                readSequence(r, alphabet, /*allowEmpty=*/!affine, out.b);
            e != WireError::None)
            return e;
        break;
    }
    case RequestTag::Dtw: {
        if (WireError e = readSignal(r, out.x); e != WireError::None)
            return e;
        if (WireError e = readSignal(r, out.y); e != WireError::None)
            return e;
        break;
    }
    case RequestTag::GraphAlign: {
        if (!r.i64(out.threshold))
            return WireError::Truncated;
        if (!validThreshold(out.threshold, /*sentinelAllowed=*/true))
            return WireError::BadRequest;
        if (WireError e = readSequence(r, graphAlphabet,
                                       /*allowEmpty=*/true, out.read);
            e != WireError::None)
            return e;
        break;
    }
    case RequestTag::MapReads: {
        if (!r.i64(out.threshold))
            return WireError::Truncated;
        if (!validThreshold(out.threshold, /*sentinelAllowed=*/true))
            return WireError::BadRequest;
        std::string fasta;
        if (!r.str(fasta, kDefaultMaxFrameBytes))
            return WireError::Truncated;
        if (WireError e = readFastaBatch(fasta, graphAlphabet, out.reads);
            e != WireError::None)
            return e;
        break;
    }
    case RequestTag::Stats:
    case RequestTag::Ping:
    case RequestTag::Metrics:
    case RequestTag::Health:
        break;
    }

    if (!r.done())
        return WireError::BadRequest; // trailing garbage
    return WireError::None;
}

std::vector<uint8_t>
encodeResponse(const Response &response)
{
    std::vector<uint8_t> payload;
    Writer w(payload);
    w.u32(response.id);
    w.u8(static_cast<uint8_t>(response.status));
    w.u8(static_cast<uint8_t>(response.tag));
    w.str(response.message);

    if (response.status != Status::Ok)
        return payload;

    switch (response.tag) {
    case RequestTag::Pairwise:
    case RequestTag::Affine:
    case RequestTag::Dtw:
    case RequestTag::Screen:
    case RequestTag::GraphAlign: {
        const SolveReply &s = response.solve.value();
        w.i64(s.score);
        w.i64(s.racedCost);
        w.u64(s.latencyCycles);
        w.u64(s.cyclesUsed);
        w.u64(s.events);
        w.u64(s.nodes);
        w.u64(s.cellsFired);
        w.u8(s.completed ? 1 : 0);
        w.u8(s.accepted ? 1 : 0);
        break;
    }
    case RequestTag::MapReads: {
        w.u32(static_cast<uint32_t>(response.reads.size()));
        for (const ReadReply &rr : response.reads) {
            w.i64(rr.score);
            w.u64(rr.cyclesUsed);
            w.u8(rr.accepted ? 1 : 0);
        }
        break;
    }
    case RequestTag::Stats: {
        const QueueStatsWire &q = response.queueStats.value();
        w.u64(q.enqueued);
        w.u64(q.completed);
        w.u64(q.rejectedQueueFull);
        w.u64(q.rejectedOversized);
        w.u64(q.rejectedBadRequest);
        w.u64(q.rejectedResource);
        w.u64(q.rejectedShutdown);
        w.u64(q.shedDeadline);
        w.u64(q.shedEvicted);
        w.u64(q.inflight);
        w.u64(q.queued);
        w.u64(q.highWater);
        for (const ClassStatsWire &c : q.classes) {
            w.u64(c.enqueued);
            w.u64(c.completed);
            w.u64(c.rejectedQueueFull);
            w.u64(c.rejectedResource);
            w.u64(c.shedDeadline);
            w.u64(c.shedEvicted);
            w.u64(c.queued);
        }
        w.u32(static_cast<uint32_t>(response.shardStats.size()));
        for (const ShardStatsWire &s : response.shardStats) {
            w.u64(s.solves);
            w.u64(s.plansBuilt);
            w.u64(s.planCacheHits);
            w.u64(s.shardHits);
            w.u64(s.buildLocks);
        }
        break;
    }
    case RequestTag::Ping:
        break;
    case RequestTag::Health: {
        const HealthReply &h = response.health.value();
        w.u8(static_cast<uint8_t>(h.state));
        w.u64(h.uptimeMs);
        w.u64(h.graphVersion);
        break;
    }
    case RequestTag::Metrics: {
        const telemetry::Snapshot &m = response.metrics.value();
        w.u32(static_cast<uint32_t>(m.counters.size()));
        for (const telemetry::CounterSnapshot &c : m.counters) {
            w.str(c.name);
            w.u64(c.value);
        }
        w.u32(static_cast<uint32_t>(m.gauges.size()));
        for (const telemetry::GaugeSnapshot &g : m.gauges) {
            w.str(g.name);
            w.i64(g.value);
        }
        w.u32(static_cast<uint32_t>(m.histograms.size()));
        for (const telemetry::HistogramSnapshot &h : m.histograms) {
            w.str(h.name);
            w.u32(static_cast<uint32_t>(h.buckets.size()));
            for (uint64_t b : h.buckets)
                w.u64(b);
            w.u64(h.sum);
            w.u64(h.count);
        }
        break;
    }
    }
    return payload;
}

WireError
decodeResponse(const std::vector<uint8_t> &payload, Response &out)
{
    out = Response{};
    Reader r(payload);
    if (!r.u32(out.id))
        return WireError::Truncated;
    uint8_t status, tag;
    if (!r.u8(status) || !r.u8(tag))
        return WireError::Truncated;
    if (status > static_cast<uint8_t>(Status::ResourceExhausted))
        return WireError::BadRequest;
    if (tag < static_cast<uint8_t>(RequestTag::Pairwise) ||
        tag > static_cast<uint8_t>(RequestTag::Health))
        return WireError::UnknownKind;
    out.status = static_cast<Status>(status);
    out.tag = static_cast<RequestTag>(tag);
    if (!r.str(out.message, kDefaultMaxFrameBytes))
        return WireError::Truncated;

    if (out.status != Status::Ok)
        return r.done() ? WireError::None : WireError::BadRequest;

    switch (out.tag) {
    case RequestTag::Pairwise:
    case RequestTag::Affine:
    case RequestTag::Dtw:
    case RequestTag::Screen:
    case RequestTag::GraphAlign: {
        SolveReply s;
        uint8_t completed, accepted;
        if (!r.i64(s.score) || !r.i64(s.racedCost) ||
            !r.u64(s.latencyCycles) || !r.u64(s.cyclesUsed) ||
            !r.u64(s.events) || !r.u64(s.nodes) || !r.u64(s.cellsFired) ||
            !r.u8(completed) || !r.u8(accepted))
            return WireError::Truncated;
        s.completed = completed != 0;
        s.accepted = accepted != 0;
        out.solve = s;
        break;
    }
    case RequestTag::MapReads: {
        uint32_t n;
        if (!r.u32(n))
            return WireError::Truncated;
        if (n > kDefaultMaxFrameBytes / 17)
            return WireError::BadRequest;
        out.reads.resize(n);
        for (ReadReply &rr : out.reads) {
            uint8_t accepted;
            if (!r.i64(rr.score) || !r.u64(rr.cyclesUsed) ||
                !r.u8(accepted))
                return WireError::Truncated;
            rr.accepted = accepted != 0;
        }
        break;
    }
    case RequestTag::Stats: {
        QueueStatsWire q;
        if (!r.u64(q.enqueued) || !r.u64(q.completed) ||
            !r.u64(q.rejectedQueueFull) || !r.u64(q.rejectedOversized) ||
            !r.u64(q.rejectedBadRequest) || !r.u64(q.rejectedResource) ||
            !r.u64(q.rejectedShutdown) || !r.u64(q.shedDeadline) ||
            !r.u64(q.shedEvicted) || !r.u64(q.inflight) ||
            !r.u64(q.queued) || !r.u64(q.highWater))
            return WireError::Truncated;
        for (ClassStatsWire &c : q.classes) {
            if (!r.u64(c.enqueued) || !r.u64(c.completed) ||
                !r.u64(c.rejectedQueueFull) ||
                !r.u64(c.rejectedResource) || !r.u64(c.shedDeadline) ||
                !r.u64(c.shedEvicted) || !r.u64(c.queued))
                return WireError::Truncated;
        }
        uint32_t n;
        if (!r.u32(n))
            return WireError::Truncated;
        if (n > 4096)
            return WireError::BadRequest;
        out.shardStats.resize(n);
        for (ShardStatsWire &s : out.shardStats) {
            if (!r.u64(s.solves) || !r.u64(s.plansBuilt) ||
                !r.u64(s.planCacheHits) || !r.u64(s.shardHits) ||
                !r.u64(s.buildLocks))
                return WireError::Truncated;
        }
        out.queueStats = q;
        break;
    }
    case RequestTag::Ping:
        break;
    case RequestTag::Health: {
        HealthReply h;
        uint8_t state;
        if (!r.u8(state) || !r.u64(h.uptimeMs) || !r.u64(h.graphVersion))
            return WireError::Truncated;
        if (state > static_cast<uint8_t>(HealthState::Brownout))
            return WireError::BadRequest;
        h.state = static_cast<HealthState>(state);
        out.health = h;
        break;
    }
    case RequestTag::Metrics: {
        telemetry::Snapshot m;
        uint32_t nCounters;
        if (!r.u32(nCounters))
            return WireError::Truncated;
        if (nCounters > kMaxWireMetricSeries)
            return WireError::BadRequest;
        m.counters.resize(nCounters);
        for (telemetry::CounterSnapshot &c : m.counters) {
            if (!r.str(c.name, kMaxWireMetricName) || !r.u64(c.value))
                return WireError::Truncated;
        }
        uint32_t nGauges;
        if (!r.u32(nGauges))
            return WireError::Truncated;
        if (nGauges > kMaxWireMetricSeries)
            return WireError::BadRequest;
        m.gauges.resize(nGauges);
        for (telemetry::GaugeSnapshot &g : m.gauges) {
            if (!r.str(g.name, kMaxWireMetricName) || !r.i64(g.value))
                return WireError::Truncated;
        }
        uint32_t nHists;
        if (!r.u32(nHists))
            return WireError::Truncated;
        if (nHists > kMaxWireMetricHistograms)
            return WireError::BadRequest;
        m.histograms.resize(nHists);
        for (telemetry::HistogramSnapshot &h : m.histograms) {
            uint32_t nBuckets;
            if (!r.str(h.name, kMaxWireMetricName) || !r.u32(nBuckets))
                return WireError::Truncated;
            if (nBuckets > kMaxWireMetricBuckets)
                return WireError::BadRequest;
            h.buckets.resize(nBuckets);
            for (uint64_t &b : h.buckets)
                if (!r.u64(b))
                    return WireError::Truncated;
            if (!r.u64(h.sum) || !r.u64(h.count))
                return WireError::Truncated;
        }
        out.metrics = std::move(m);
        break;
    }
    }

    if (!r.done())
        return WireError::BadRequest;
    return WireError::None;
}

std::vector<uint8_t>
frame(const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> framed;
    framed.reserve(payload.size() + 4);
    Writer w(framed);
    w.u32(static_cast<uint32_t>(payload.size()));
    framed.insert(framed.end(), payload.begin(), payload.end());
    return framed;
}

WireError
parseFrameHeader(const uint8_t *bytes, size_t available,
                 uint32_t maxFrameBytes, uint32_t &length)
{
    if (available < 4)
        return WireError::Truncated;
    length = 0;
    for (int i = 0; i < 4; ++i)
        length |= static_cast<uint32_t>(bytes[i]) << (8 * i);
    if (length > maxFrameBytes)
        return WireError::Oversized;
    return WireError::None;
}

} // namespace racelogic::serve
