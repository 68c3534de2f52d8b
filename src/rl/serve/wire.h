/**
 * @file
 * The racelogic::serve wire protocol: length-prefixed binary frames.
 *
 * A frame is a 4-byte little-endian payload length followed by the
 * payload.  Request payloads open with a 4-byte request id, a 1-byte
 * kind tag, a 4-byte relative deadline in milliseconds (0 = none),
 * and a 1-byte traffic class (0=batch, 1=normal, 2=interactive);
 * response payloads echo the id and carry a 1-byte status.  Everything is explicit fixed-width little-endian -- no
 * struct punning -- so the format is host-independent and a hostile
 * peer can at worst earn itself a typed error.
 *
 * Decoding is *total*: any byte string maps to either a validated,
 * race-ready request or a WireError (Truncated / Oversized /
 * UnknownKind / BadRequest).  The daemon never calls fatal()/panic()
 * on wire input; every validation the engine's factories would
 * enforce with a process-killing assert is pre-checked here and
 * reported as BadRequest instead (see docs/serve.md for the limits).
 *
 * The protocol deliberately carries only race-ready Cost-kind
 * matrices: Section 5 similarity conversion is a client-side
 * planning concern, and restricting the daemon to shortest-path form
 * keeps every admission check local to the frame.
 */

#ifndef RACELOGIC_SERVE_WIRE_H
#define RACELOGIC_SERVE_WIRE_H

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rl/apps/dtw.h"
#include "rl/bio/score_matrix.h"
#include "rl/bio/sequence.h"
#include "rl/telemetry/registry.h"
#include "rl/util/status.h"

namespace racelogic::serve {

/** @name Frame limits (admission control at the byte layer) @{ */

/** Ceiling on one frame's payload bytes: the daemon's, and
 *  ServeClient's default. */
constexpr uint32_t kDefaultMaxFrameBytes = 8u << 20;

/** Largest edit weight the protocol admits (under the race's delay cap). */
constexpr int64_t kMaxWireWeight = 4096;

/** Largest sequence length the protocol admits. */
constexpr uint32_t kMaxWireSequence = 1u << 16;

/** Largest DTW signal length the protocol admits. */
constexpr uint32_t kMaxWireSamples = 4096;

/** Largest DTW sample magnitude the protocol admits. */
constexpr int64_t kMaxWireSample = 4096;

/** Largest alphabet the protocol admits (protein is 20). */
constexpr uint32_t kMaxWireAlphabet = 64;

/** @} */

/** Typed outcome of decoding one payload. */
enum class WireError : uint8_t {
    None = 0,    ///< decoded and validated
    Truncated,   ///< payload ended before a declared field
    Oversized,   ///< frame or problem exceeds the admission limits
    UnknownKind, ///< request tag this daemon does not speak
    BadRequest,  ///< well-formed bytes describing an invalid problem
};

/** Human-readable WireError name. */
const char *wireErrorName(WireError error);

/** Response status byte (the admission-control verdicts). */
enum class Status : uint8_t {
    Ok = 0,
    QueueFull = 1,    ///< bounded queue rejected the request
    Oversized = 2,    ///< frame/problem over the admission limits
    BadRequest = 3,   ///< undecodable or invalid problem
    ShuttingDown = 4, ///< daemon is draining; resubmit elsewhere
    DeadlineExceeded = 5, ///< the request's own deadline expired first
    ResourceExhausted = 6, ///< compute budget (product states) exceeded
};

/** Human-readable Status name. */
const char *statusName(Status status);

/**
 * Traffic class carried in every request header.  Admission is
 * priority-aware: when outstanding work hits the bound the queue
 * sheds lowest-class-first, so interactive latency stays bounded
 * while batch traffic absorbs the typed QueueFulls; brownout sheds
 * batch-class work outright with ResourceExhausted.
 */
enum class Priority : uint8_t {
    Batch = 0,       ///< bulk/offline work, first to shed
    Normal = 1,      ///< the default
    Interactive = 2, ///< latency-sensitive, last to shed
};

/** Number of traffic classes (array size for per-class ledgers). */
constexpr size_t kPriorityClasses = 3;

/** Human-readable Priority name. */
const char *priorityName(Priority priority);

/**
 * @name Library-to-wire error mapping (the one source of truth)
 *
 * Every library ErrorCode maps to exactly one wire Status and one
 * WireError -- mechanically, with no per-call-site judgment, so the
 * serve layer can return whatever rl::Status the library's own
 * validation produced and the verdict a client sees is deterministic.
 * Parse/admission caps (ErrorCode::Oversized) surface as Oversized;
 * compute budgets (ErrorCode::ResourceExhausted) as
 * ResourceExhausted; every other input fault as BadRequest.  The
 * anti-drift suite asserts the mapping is total.
 * @{ */

/** The wire response Status one library ErrorCode maps to. */
Status statusForCode(ErrorCode code);

/** The decode-layer WireError one library ErrorCode maps to. */
WireError wireErrorForCode(ErrorCode code);

/** @} */

/** Request kind tags on the wire. */
enum class RequestTag : uint8_t {
    Pairwise = 1,   ///< global alignment, inline cost matrix
    Affine = 2,     ///< Gotoh affine-gap alignment, inline matrix
    Dtw = 3,        ///< dynamic time warping of two signals
    Screen = 4,     ///< Section 6 threshold screen, inline matrix
    GraphAlign = 5, ///< one read vs. the preloaded pangenome
    MapReads = 6,   ///< FASTA batch vs. the preloaded pangenome
    Stats = 7,      ///< admission/engine counter snapshot
    Ping = 8,       ///< liveness probe
    Metrics = 9,    ///< full telemetry snapshot (named series)
    Health = 10,    ///< ready/draining/brownout probe (load balancers)
};

/** Human-readable tag name. */
const char *requestTagName(RequestTag tag);

/**
 * One decoded, validated request.  Which fields are populated depends
 * on `tag`; sequences are already alphabet-checked and encoded, so
 * the server can hand them to the engine factories without tripping a
 * fatal().
 */
struct Request {
    RequestTag tag = RequestTag::Ping;
    uint32_t id = 0;

    /**
     * Caller's deadline in milliseconds, relative to frame arrival
     * (0 = none).  Relative on the wire because client and daemon
     * clocks need not agree; the server stamps arrival and races
     * against its own steady clock.  A request whose deadline expires
     * while queued is shed with Status::DeadlineExceeded; one that
     * expires mid-race is cancelled cooperatively.
     */
    uint32_t deadlineMs = 0;

    /**
     * Traffic class (header byte after the deadline).  Values above
     * Interactive are BadRequest at decode, so the server's per-class
     * ledger indexing is always in range.
     */
    Priority priority = Priority::Normal;

    /** Pairwise / Affine / Screen: the inline cost matrix. */
    std::optional<bio::ScoreMatrix> matrix;

    /** Pairwise / Affine / Screen sequences (a = query). */
    std::optional<bio::Sequence> a, b;

    /** Screen / GraphAlign / MapReads threshold (kScoreInfinity = none). */
    bio::Score threshold = bio::kScoreInfinity;

    /** Affine gap costs. */
    bio::Score open = 2, extend = 1;

    /** Dtw signals. */
    std::vector<apps::Sample> x, y;

    /** GraphAlign read / MapReads parsed records. */
    std::optional<bio::Sequence> read;
    std::vector<bio::Sequence> reads;
};

/**
 * Engine counters carried by a Stats response.  The daemon sends one
 * row, its shared engine's; the name and the two zero columns keep
 * the Stats frame layout stable until the protocol carries a version
 * byte.
 */
struct ShardStatsWire {
    uint64_t solves = 0;        ///< engine solves
    uint64_t plansBuilt = 0;    ///< engine plan-cache misses
    uint64_t planCacheHits = 0; ///< engine plan-cache hits
    uint64_t shardHits = 0;     ///< always 0 (layout placeholder)
    uint64_t buildLocks = 0;    ///< always 0 (layout placeholder)
};

/** One traffic class's slice of the admission ledger. */
struct ClassStatsWire {
    uint64_t enqueued = 0;          ///< admitted into this class
    uint64_t completed = 0;         ///< fully served
    uint64_t rejectedQueueFull = 0; ///< bounced at the bound
    uint64_t rejectedResource = 0;  ///< brownout sheds at admission
    uint64_t shedDeadline = 0;      ///< admitted, expired while queued
    uint64_t shedEvicted = 0;       ///< admitted, evicted by a higher class
    uint64_t queued = 0;            ///< admitted, not yet drained
};

/**
 * The admission ledger: the RequestQueue keeps it (as QueueStats) and
 * a Stats response carries it.
 */
struct QueueStatsWire {
    uint64_t enqueued = 0;           ///< admitted requests
    uint64_t completed = 0;          ///< admitted requests fully served
    uint64_t rejectedQueueFull = 0;  ///< bounced: queue at depth
    uint64_t rejectedOversized = 0;  ///< bounced: frame/problem too big
    uint64_t rejectedBadRequest = 0; ///< bounced: undecodable/invalid
    uint64_t rejectedResource = 0;   ///< bounced: compute budget/brownout
    uint64_t rejectedShutdown = 0;   ///< bounced: daemon draining
    uint64_t shedDeadline = 0;       ///< admitted, expired while queued
    uint64_t shedEvicted = 0;        ///< admitted, evicted at the bound
    uint64_t inflight = 0;           ///< drained, not yet completed
    uint64_t queued = 0;             ///< admitted, not yet drained
    uint64_t highWater = 0;          ///< max outstanding ever observed

    /** Per-class slices, indexed by Priority (batch/normal/interactive). */
    std::array<ClassStatsWire, kPriorityClasses> classes;

    uint64_t
    rejected() const
    {
        return rejectedQueueFull + rejectedOversized +
               rejectedBadRequest + rejectedResource + rejectedShutdown;
    }
};

/** The raced result of one problem, as it travels back. */
struct SolveReply {
    int64_t score = 0;
    int64_t racedCost = 0;
    uint64_t latencyCycles = 0;
    uint64_t cyclesUsed = 0;
    uint64_t events = 0;
    uint64_t nodes = 0;
    uint64_t cellsFired = 0;
    bool completed = false;
    bool accepted = false;
};

/** One read's verdict inside a MapReads batch response. */
struct ReadReply {
    int64_t score = 0;
    uint64_t cyclesUsed = 0;
    bool accepted = false;
};

/** Daemon lifecycle state carried by a Health response. */
enum class HealthState : uint8_t {
    Ready = 0,    ///< serving normally
    Draining = 1, ///< stop() in progress; resubmit elsewhere
    Brownout = 2, ///< memory high-watermark crossed; batch is shedding
};

/** Human-readable HealthState name. */
const char *healthStateName(HealthState state);

/** Body of a Health response (answered inline, even while saturated). */
struct HealthReply {
    HealthState state = HealthState::Ready;
    uint64_t uptimeMs = 0;     ///< since AlignServer::start()
    uint64_t graphVersion = 0; ///< bumps on every successful reload
};

/** One decoded response frame. */
struct Response {
    uint32_t id = 0;
    Status status = Status::Ok;
    RequestTag tag = RequestTag::Ping;
    std::string message; ///< error detail (non-Ok only)

    std::optional<SolveReply> solve;   ///< solve kinds
    std::vector<ReadReply> reads;      ///< MapReads
    std::optional<QueueStatsWire> queueStats; ///< Stats
    std::vector<ShardStatsWire> shardStats;   ///< Stats
    std::optional<telemetry::Snapshot> metrics; ///< Metrics
    std::optional<HealthReply> health; ///< Health
};

/** @name Metrics response body caps (admission control) @{ */

/** Most counter or gauge series one Metrics response may carry. */
constexpr uint32_t kMaxWireMetricSeries = 4096;

/** Most histogram series one Metrics response may carry. */
constexpr uint32_t kMaxWireMetricHistograms = 1024;

/** Longest metric name the protocol admits. */
constexpr uint32_t kMaxWireMetricName = 256;

/** Most histogram buckets one wire series may carry. */
constexpr uint32_t kMaxWireMetricBuckets = 64;

/** @} */

/** @name Request encoding (client side)
 * `deadlineMs` is the caller's per-request deadline in milliseconds
 * relative to arrival (0 = none); see Request::deadlineMs.
 * `priority` is the traffic class (see Priority).
 * @{ */

std::vector<uint8_t> encodePairwise(uint32_t id,
                                    const bio::ScoreMatrix &costs,
                                    const std::string &a,
                                    const std::string &b,
                                    uint32_t deadlineMs = 0,
                                    Priority priority = Priority::Normal);
std::vector<uint8_t> encodeScreen(uint32_t id,
                                  const bio::ScoreMatrix &costs,
                                  bio::Score threshold,
                                  const std::string &a,
                                  const std::string &b,
                                  uint32_t deadlineMs = 0,
                                  Priority priority = Priority::Normal);
std::vector<uint8_t> encodeAffine(uint32_t id,
                                  const bio::ScoreMatrix &costs,
                                  bio::Score open, bio::Score extend,
                                  const std::string &a,
                                  const std::string &b,
                                  uint32_t deadlineMs = 0,
                                  Priority priority = Priority::Normal);
std::vector<uint8_t> encodeDtw(uint32_t id,
                               const std::vector<apps::Sample> &x,
                               const std::vector<apps::Sample> &y,
                               uint32_t deadlineMs = 0,
                               Priority priority = Priority::Normal);
std::vector<uint8_t> encodeGraphAlign(uint32_t id, const std::string &read,
                                      bio::Score threshold,
                                      uint32_t deadlineMs = 0,
                                      Priority priority = Priority::Normal);
std::vector<uint8_t> encodeMapReads(uint32_t id, const std::string &fasta,
                                    bio::Score threshold,
                                    uint32_t deadlineMs = 0,
                                    Priority priority = Priority::Normal);
std::vector<uint8_t> encodeStatsRequest(uint32_t id);
std::vector<uint8_t> encodePing(uint32_t id);
std::vector<uint8_t> encodeMetricsRequest(uint32_t id);
std::vector<uint8_t> encodeHealthRequest(uint32_t id);

/** @} */

/**
 * The last inline cost matrix one connection decoded: its wire bytes
 * (letters and every weight), the pair rule it was validated under
 * and the validated matrix, memoized scans included.  A frame whose
 * matrix bytes equal the slot's in full, under the same rule, takes a
 * copy of that matrix instead of rebuilding and revalidating it.
 * Only decodeRequest() reads or fills a slot; its owner keeps one per
 * connection, at most one kMaxWireAlphabet-letter matrix (about
 * 66 KiB).
 */
class MatrixSlot
{
  private:
    friend WireError decodeRequest(std::span<const uint8_t> payload,
                                   const bio::Alphabet &graphAlphabet,
                                   Request &out, MatrixSlot *slot);

    std::vector<uint8_t> bytes;
    bool finitePairs = false;
    std::optional<bio::ScoreMatrix> matrix;
};

/**
 * Decode and validate one request payload.  `graphAlphabet` checks
 * GraphAlign/MapReads letters (the preloaded pangenome's alphabet).
 * On any error the returned Request carries whatever id could be
 * read (0 if none) so the server can still address its reply.  The
 * payload is read in place (the daemon passes a view into its
 * connection's receive buffer); only what `out` keeps -- the matrix,
 * the encoded sequences, signals and reads -- is allocated, plus the
 * one copy of a MapReads batch's FASTA text its parser reads.  With a
 * `slot`, an inline matrix equal to the slot's is copied from it, and
 * a new one that validates replaces it; the verdict and the decoded
 * request are the same with or without one.
 */
WireError decodeRequest(std::span<const uint8_t> payload,
                        const bio::Alphabet &graphAlphabet,
                        Request &out, MatrixSlot *slot = nullptr);

/** Encode a response payload. */
std::vector<uint8_t> encodeResponse(const Response &response);

/**
 * Encode `response` as one whole frame -- length prefix and payload
 * -- appended to `out`, so a reused buffer encodes without allocating
 * and one buffer can carry a batch of frames to a single send().
 */
void encodeResponseFrame(const Response &response,
                         std::vector<uint8_t> &out);

/** Decode a response payload (client side). */
WireError decodeResponse(std::span<const uint8_t> payload, Response &out);

/** Bytes of the little-endian length prefix that opens every frame. */
constexpr size_t kFrameHeaderBytes = 4;

/** Wrap a payload in its 4-byte little-endian length prefix. */
std::vector<uint8_t> frame(const std::vector<uint8_t> &payload);

/**
 * Parse a 4-byte length prefix against `maxFrameBytes`.  Returns
 * WireError::Oversized for hostile lengths; Truncated if fewer than
 * 4 bytes are supplied.
 */
WireError parseFrameHeader(const uint8_t *bytes, size_t available,
                           uint32_t maxFrameBytes, uint32_t &length);

} // namespace racelogic::serve

#endif // RACELOGIC_SERVE_WIRE_H
