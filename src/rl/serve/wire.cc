#include "rl/serve/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <string_view>

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
//
// Writer and Reader share one vocabulary, so one field walk
// (replyFields) both encodes and decodes a reply.  Writer's calls take
// values and return true; Reader's take references and return false
// once the payload runs short or a count passes its cap.

/**
 * Little-endian writer: stores each value whole at its offset from
 * `out`.  Made without memory it stores nothing and only counts, so
 * one walk sizes the bytes that a second walk writes.
 */
class Writer
{
  public:
    Writer() = default;
    explicit Writer(uint8_t *out) : at(out) {}

    bool u8(uint8_t v) { return le(v); }
    bool u32(uint32_t v) { return le(v); }
    bool u64(uint64_t v) { return le(v); }
    bool i64(int64_t v) { return le(static_cast<uint64_t>(v)); }

    /** A bool as one byte, 0 or 1. */
    bool flag(bool b) { return u8(b ? 1 : 0); }

    /** Length-prefixed string; the cap binds only the reader. */
    bool
    str(const std::string &s, uint32_t /*maxLength*/ = 0)
    {
        u32(static_cast<uint32_t>(s.size()));
        if (at)
            std::memcpy(at + n, s.data(), s.size());
        n += s.size();
        return true;
    }

    /** An enum as its one-byte value. */
    template <class E>
    bool
    enumerated(E e, E /*last*/)
    {
        return u8(static_cast<uint8_t>(e));
    }

    /** A vector's u32 length; its elements follow. */
    template <class T>
    bool
    count(const std::vector<T> &items, uint32_t /*max*/)
    {
        return u32(static_cast<uint32_t>(items.size()));
    }

    /** A part of the reply, which must be present. */
    template <class T>
    const T &
    part(const std::optional<T> &field)
    {
        return field.value();
    }

    /** Bytes written, or counted. */
    size_t size() const { return n; }

  private:
    template <class U>
    bool
    le(U v)
    {
        if (at) {
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(at + n, &v, sizeof v);
            } else {
                for (size_t i = 0; i < sizeof v; ++i)
                    at[n + i] = static_cast<uint8_t>(v >> (8 * i));
            }
        }
        n += sizeof v;
        return true;
    }

    uint8_t *at = nullptr;
    size_t n = 0;
};

/** Append to `out` what `write(Writer &)` writes: a counting walk
 *  sizes it, and the writing walk stores it in place. */
template <class Write>
void
append(std::vector<uint8_t> &out, Write write)
{
    Writer sizer;
    write(sizer);
    const size_t start = out.size();
    out.resize(start + sizer.size());
    Writer w(out.data() + start);
    write(w);
}

/**
 * Bounds-checked little-endian reader over borrowed bytes.  Every
 * read reports truncation instead of walking off the payload, so a
 * hostile frame can never index out of bounds.  It remembers whether
 * it ran short or refused a value, so a reply walk ends in verdict().
 */
class Reader
{
  public:
    explicit Reader(std::span<const uint8_t> in) : bytes(in) {}

    bool u8(uint8_t &v) { return le(v); }
    bool u32(uint32_t &v) { return le(v); }
    bool u64(uint64_t &v) { return le(v); }

    bool
    i64(int64_t &v)
    {
        uint64_t raw;
        if (!u64(raw))
            return false;
        std::memcpy(&v, &raw, sizeof v);
        return true;
    }

    /** A bool as one byte: any nonzero byte is true. */
    bool
    flag(bool &b)
    {
        uint8_t v;
        if (!u8(v))
            return false;
        b = v != 0;
        return true;
    }

    /**
     * Length-prefixed string, viewed in place (valid as long as the
     * payload), capped so a lying prefix truncates.
     */
    bool
    view(std::string_view &s, uint32_t maxLength)
    {
        uint32_t n;
        if (!u32(n))
            return false;
        if (n > maxLength || !take(n)) {
            ranShort = true;
            return false;
        }
        s = {reinterpret_cast<const char *>(bytes.data() + pos), n};
        pos += n;
        return true;
    }

    /** Length-prefixed string, copied out. */
    bool
    str(std::string &s, uint32_t maxLength)
    {
        std::string_view v;
        if (!view(v, maxLength))
            return false;
        s.assign(v);
        return true;
    }

    /**
     * An enum byte, refused past `last`.  A refused byte does not stop
     * the walk, so a reply that is also short reads Truncated.
     */
    template <class E>
    bool
    enumerated(E &e, E last)
    {
        uint8_t v;
        if (!u8(v))
            return false;
        if (v > static_cast<uint8_t>(last))
            refused = true;
        else
            e = static_cast<E>(v);
        return true;
    }

    /** A vector's u32 length, refused past `max`; sizes `items`. */
    template <class T>
    bool
    count(std::vector<T> &items, uint32_t max)
    {
        uint32_t n;
        if (!u32(n))
            return false;
        if (n > max) {
            refused = true;
            return false;
        }
        items.resize(n);
        return true;
    }

    /** A part of the reply, made present to be read into. */
    template <class T>
    T &
    part(std::optional<T> &field)
    {
        return field.emplace();
    }

    bool done() const { return pos == bytes.size(); }

    /** The bytes not yet read. */
    std::span<const uint8_t> rest() const { return bytes.subspan(pos); }

    /** Read past `expected` if the payload continues with it. */
    bool
    skip(std::span<const uint8_t> expected)
    {
        if (bytes.size() - pos < expected.size() ||
            !std::equal(expected.begin(), expected.end(),
                        bytes.begin() + pos))
            return false;
        pos += expected.size();
        return true;
    }

    /** Truncated if the walk ran short, else BadRequest if it refused a
     *  value or left bytes unread. */
    WireError
    verdict() const
    {
        if (ranShort)
            return WireError::Truncated;
        return refused || !done() ? WireError::BadRequest : WireError::None;
    }

  private:
    bool
    take(size_t n)
    {
        if (pos + n <= bytes.size())
            return true;
        ranShort = true;
        return false;
    }

    template <class U>
    bool
    le(U &v)
    {
        if (!take(sizeof v))
            return false;
        v = 0;
        for (size_t i = 0; i < sizeof v; ++i)
            v |= static_cast<U>(static_cast<U>(bytes[pos++]) << (8 * i));
        return true;
    }

    std::span<const uint8_t> bytes;
    size_t pos = 0;
    bool ranShort = false;
    bool refused = false;
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
    std::string_view letters;
    if (!r.view(letters, kMaxWireAlphabet))
        return WireError::Truncated;
    auto alphabet = bio::Alphabet::tryMake(std::string(letters));
    if (!alphabet.ok())
        return wireErrorForCode(alphabet.status().code());

    // Weights are read straight into the matrix the request keeps.
    const size_t n = letters.size();
    bio::ScoreMatrix &m =
        out.emplace(std::move(alphabet.value()), bio::ScoreKind::Cost);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j) {
            int64_t w;
            if (!r.i64(w))
                return WireError::Truncated;
            m.setPair(static_cast<bio::Symbol>(i),
                      static_cast<bio::Symbol>(j), w);
        }
    for (size_t i = 0; i < n; ++i) {
        int64_t w;
        if (!r.i64(w))
            return WireError::Truncated;
        m.setGap(static_cast<bio::Symbol>(i), w);
    }
    if (racelogic::Status ready = m.validateRaceReady(
            kMaxWireWeight, /*allowForbiddenPairs=*/!finitePairs);
        !ready.ok())
        return wireErrorForCode(ready.code());
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
    std::string_view text;
    if (!r.view(text, kMaxWireSequence))
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
readFastaBatch(std::string_view text, const bio::Alphabet &alphabet,
               std::vector<bio::Sequence> &out)
{
    bio::FastaLimits limits;
    limits.maxSequenceLength = kMaxWireSequence;
    // The parser reads a stream; it takes the batch's one copy.
    std::istringstream in{std::string(text)};
    auto records = bio::tryReadFasta(in, alphabet, limits);
    if (!records.ok())
        return wireErrorForCode(records.status().code());
    if (records.value().empty())
        return WireError::BadRequest;
    out.reserve(records.value().size());
    for (bio::FastaRecord &record : records.value())
        out.push_back(std::move(record.sequence));
    return WireError::None;
}

/** A request payload: id + tag + deadline (ms) + priority, then the
 *  body `body(Writer &)` writes. */
template <class Body>
std::vector<uint8_t>
request(uint32_t id, RequestTag tag, uint32_t deadlineMs, Priority priority,
        Body body)
{
    std::vector<uint8_t> payload;
    append(payload, [&](Writer &w) {
        w.u32(id);
        w.u8(static_cast<uint8_t>(tag));
        w.u32(deadlineMs);
        w.u8(static_cast<uint8_t>(priority));
        body(w);
    });
    return payload;
}

/** A request with no body. */
std::vector<uint8_t>
bareRequest(uint32_t id, RequestTag tag)
{
    return request(id, tag, 0, Priority::Normal, [](Writer &) {});
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
    return request(id, RequestTag::Pairwise, deadlineMs, priority,
                   [&](Writer &w) {
                       writeMatrix(w, costs);
                       w.str(a);
                       w.str(b);
                   });
}

std::vector<uint8_t>
encodeScreen(uint32_t id, const bio::ScoreMatrix &costs,
             bio::Score threshold, const std::string &a,
             const std::string &b, uint32_t deadlineMs, Priority priority)
{
    return request(id, RequestTag::Screen, deadlineMs, priority,
                   [&](Writer &w) {
                       writeMatrix(w, costs);
                       w.i64(threshold);
                       w.str(a);
                       w.str(b);
                   });
}

std::vector<uint8_t>
encodeAffine(uint32_t id, const bio::ScoreMatrix &costs, bio::Score open,
             bio::Score extend, const std::string &a, const std::string &b,
             uint32_t deadlineMs, Priority priority)
{
    return request(id, RequestTag::Affine, deadlineMs, priority,
                   [&](Writer &w) {
                       writeMatrix(w, costs);
                       w.i64(open);
                       w.i64(extend);
                       w.str(a);
                       w.str(b);
                   });
}

std::vector<uint8_t>
encodeDtw(uint32_t id, const std::vector<apps::Sample> &x,
          const std::vector<apps::Sample> &y, uint32_t deadlineMs,
          Priority priority)
{
    return request(id, RequestTag::Dtw, deadlineMs, priority,
                   [&](Writer &w) {
                       for (const auto *signal : {&x, &y}) {
                           w.count(*signal, kMaxWireSamples);
                           for (apps::Sample s : *signal)
                               w.i64(s);
                       }
                   });
}

std::vector<uint8_t>
encodeGraphAlign(uint32_t id, const std::string &read,
                 bio::Score threshold, uint32_t deadlineMs,
                 Priority priority)
{
    return request(id, RequestTag::GraphAlign, deadlineMs, priority,
                   [&](Writer &w) {
                       w.i64(threshold);
                       w.str(read);
                   });
}

std::vector<uint8_t>
encodeMapReads(uint32_t id, const std::string &fasta, bio::Score threshold,
               uint32_t deadlineMs, Priority priority)
{
    return request(id, RequestTag::MapReads, deadlineMs, priority,
                   [&](Writer &w) {
                       w.i64(threshold);
                       w.str(fasta);
                   });
}

std::vector<uint8_t>
encodeStatsRequest(uint32_t id)
{
    return bareRequest(id, RequestTag::Stats);
}

std::vector<uint8_t>
encodePing(uint32_t id)
{
    return bareRequest(id, RequestTag::Ping);
}

std::vector<uint8_t>
encodeMetricsRequest(uint32_t id)
{
    return bareRequest(id, RequestTag::Metrics);
}

std::vector<uint8_t>
encodeHealthRequest(uint32_t id)
{
    return bareRequest(id, RequestTag::Health);
}

WireError
decodeRequest(std::span<const uint8_t> payload,
              const bio::Alphabet &graphAlphabet, Request &out,
              MatrixSlot *slot)
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
        if (slot && slot->matrix && slot->finitePairs == affine &&
            r.skip(slot->bytes)) {
            out.matrix = slot->matrix;
        } else {
            const std::span<const uint8_t> from = r.rest();
            if (WireError e =
                    readMatrix(r, /*finitePairs=*/affine, out.matrix);
                e != WireError::None)
                return e;
            if (slot) {
                // Scan once here, so that every copy carries the scans.
                out.matrix->fingerprint();
                out.matrix->minFinite();
                out.matrix->maxFinite();
                slot->bytes.assign(from.begin(),
                                   from.end() - r.rest().size());
                slot->finitePairs = affine;
                slot->matrix = out.matrix;
            }
        }
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
        std::string_view fasta;
        if (!r.view(fasta, kDefaultMaxFrameBytes))
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

namespace {

/** Most read verdicts a MapReads reply may carry (17 bytes each). */
constexpr uint32_t kMaxWireReadReplies = kDefaultMaxFrameBytes / 17;

/** Most engine rows a Stats reply may carry. */
constexpr uint32_t kMaxWireEngineRows = 4096;

/** `field` over every element of `items`, stopping at the first false. */
template <class Items, class Field>
bool
each(Items &items, Field field)
{
    for (auto &item : items)
        if (!field(item))
            return false;
    return true;
}

/**
 * The one description of an Ok reply's body: its fields in wire order
 * (docs/serve.md, "Responses").  Instantiated with Writer over a
 * const Response to encode, which needs the tag's part present, and
 * with Reader over a Response to decode, which makes it present.  The
 * header before the body is spelled out on each side, since only
 * decode range-checks it.
 */
template <class IO, class R>
bool
replyFields(IO &io, R &reply)
{
    switch (reply.tag) {
    case RequestTag::Pairwise:
    case RequestTag::Affine:
    case RequestTag::Dtw:
    case RequestTag::Screen:
    case RequestTag::GraphAlign: {
        auto &s = io.part(reply.solve);
        return io.i64(s.score) && io.i64(s.racedCost) &&
               io.u64(s.latencyCycles) && io.u64(s.cyclesUsed) &&
               io.u64(s.events) && io.u64(s.nodes) &&
               io.u64(s.cellsFired) && io.flag(s.completed) &&
               io.flag(s.accepted);
    }
    case RequestTag::MapReads:
        return io.count(reply.reads, kMaxWireReadReplies) &&
               each(reply.reads, [&](auto &read) {
                   return io.i64(read.score) && io.u64(read.cyclesUsed) &&
                          io.flag(read.accepted);
               });
    case RequestTag::Stats: {
        auto &q = io.part(reply.queueStats);
        return io.u64(q.enqueued) && io.u64(q.completed) &&
               io.u64(q.rejectedQueueFull) &&
               io.u64(q.rejectedOversized) &&
               io.u64(q.rejectedBadRequest) &&
               io.u64(q.rejectedResource) && io.u64(q.rejectedShutdown) &&
               io.u64(q.shedDeadline) && io.u64(q.shedEvicted) &&
               io.u64(q.inflight) && io.u64(q.queued) &&
               io.u64(q.highWater) &&
               each(q.classes,
                    [&](auto &c) {
                        return io.u64(c.enqueued) && io.u64(c.completed) &&
                               io.u64(c.rejectedQueueFull) &&
                               io.u64(c.rejectedResource) &&
                               io.u64(c.shedDeadline) &&
                               io.u64(c.shedEvicted) && io.u64(c.queued);
                    }) &&
               io.count(reply.shardStats, kMaxWireEngineRows) &&
               each(reply.shardStats, [&](auto &row) {
                   return io.u64(row.solves) && io.u64(row.plansBuilt) &&
                          io.u64(row.planCacheHits) &&
                          io.u64(row.shardHits) && io.u64(row.buildLocks);
               });
    }
    case RequestTag::Ping:
        return true;
    case RequestTag::Health: {
        auto &h = io.part(reply.health);
        return io.enumerated(h.state, HealthState::Brownout) &&
               io.u64(h.uptimeMs) && io.u64(h.graphVersion);
    }
    case RequestTag::Metrics: {
        auto &m = io.part(reply.metrics);
        return io.count(m.counters, kMaxWireMetricSeries) &&
               each(m.counters,
                    [&](auto &c) {
                        return io.str(c.name, kMaxWireMetricName) &&
                               io.u64(c.value);
                    }) &&
               io.count(m.gauges, kMaxWireMetricSeries) &&
               each(m.gauges,
                    [&](auto &g) {
                        return io.str(g.name, kMaxWireMetricName) &&
                               io.i64(g.value);
                    }) &&
               io.count(m.histograms, kMaxWireMetricHistograms) &&
               each(m.histograms, [&](auto &h) {
                   return io.str(h.name, kMaxWireMetricName) &&
                          io.count(h.buckets, kMaxWireMetricBuckets) &&
                          each(h.buckets,
                               [&](auto &bucket) { return io.u64(bucket); }) &&
                          io.u64(h.sum) && io.u64(h.count);
               });
    }
    }
    return true;
}

/** Append the payload of `response` to `w`. */
void
writeResponse(Writer &w, const Response &response)
{
    w.u32(response.id);
    w.u8(static_cast<uint8_t>(response.status));
    w.u8(static_cast<uint8_t>(response.tag));
    w.str(response.message);
    if (response.status == Status::Ok)
        replyFields(w, response);
}

} // namespace

std::vector<uint8_t>
encodeResponse(const Response &response)
{
    std::vector<uint8_t> payload;
    append(payload, [&](Writer &w) { writeResponse(w, response); });
    return payload;
}

void
encodeResponseFrame(const Response &response, std::vector<uint8_t> &out)
{
    Writer sizer;
    writeResponse(sizer, response);
    const size_t start = out.size();
    out.resize(start + kFrameHeaderBytes + sizer.size());
    Writer w(out.data() + start);
    w.u32(static_cast<uint32_t>(sizer.size()));
    writeResponse(w, response);
}

WireError
decodeResponse(std::span<const uint8_t> payload, Response &out)
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
    if (out.status == Status::Ok)
        replyFields(r, out);
    return r.verdict();
}

std::vector<uint8_t>
frame(const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> framed(kFrameHeaderBytes + payload.size());
    Writer(framed.data()).u32(static_cast<uint32_t>(payload.size()));
    std::copy(payload.begin(), payload.end(),
              framed.begin() + kFrameHeaderBytes);
    return framed;
}

WireError
parseFrameHeader(const uint8_t *bytes, size_t available,
                 uint32_t maxFrameBytes, uint32_t &length)
{
    if (available < kFrameHeaderBytes)
        return WireError::Truncated;
    length = 0;
    for (size_t i = 0; i < kFrameHeaderBytes; ++i)
        length |= static_cast<uint32_t>(bytes[i]) << (8 * i);
    if (length > maxFrameBytes)
        return WireError::Oversized;
    return WireError::None;
}

} // namespace racelogic::serve
