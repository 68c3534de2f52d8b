/**
 * @file
 * Wire-protocol tests: round trips for every request/response kind,
 * and -- the part the daemon's life depends on -- the failure paths.
 * Decoding must be total: every mangled byte string below maps to a
 * typed WireError, never a crash, an assert, or an out-of-bounds
 * read (the sanitize CI job runs these under ASan/UBSan).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rl/serve/wire.h"

namespace {

using namespace racelogic;
using namespace racelogic::serve;
using Status = racelogic::serve::Status; // not rl::Status (library errors)

const bio::Alphabet &
dna()
{
    static const bio::Alphabet a("ACGT");
    return a;
}

bio::ScoreMatrix
fig2b()
{
    return bio::ScoreMatrix::dnaShortestPath();
}

WireError
decode(const std::vector<uint8_t> &payload, Request &out)
{
    return decodeRequest(payload, dna(), out);
}

// ----------------------------------------------------- request round trips

TEST(ServeWire, PairwiseRoundTrip)
{
    auto payload = encodePairwise(7, fig2b(), "GATTACA", "GCATGCT");
    Request req;
    ASSERT_EQ(decode(payload, req), WireError::None);
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.tag, RequestTag::Pairwise);
    ASSERT_TRUE(req.matrix.has_value());
    EXPECT_EQ(req.matrix->alphabet().letters(), "ACGT");
    EXPECT_EQ(req.matrix->fingerprint(), fig2b().fingerprint());
    ASSERT_TRUE(req.a.has_value());
    EXPECT_EQ(req.a->str(), "GATTACA");
    EXPECT_EQ(req.b->str(), "GCATGCT");
}

TEST(ServeWire, ScreenCarriesThreshold)
{
    auto payload = encodeScreen(9, fig2b(), 5, "ACGT", "ACGA");
    Request req;
    ASSERT_EQ(decode(payload, req), WireError::None);
    EXPECT_EQ(req.tag, RequestTag::Screen);
    EXPECT_EQ(req.threshold, 5);
}

TEST(ServeWire, AffineCarriesGapCosts)
{
    auto payload = encodeAffine(3, fig2b(), 4, 2, "ACGT", "AGT");
    Request req;
    ASSERT_EQ(decode(payload, req), WireError::None);
    EXPECT_EQ(req.tag, RequestTag::Affine);
    EXPECT_EQ(req.open, 4);
    EXPECT_EQ(req.extend, 2);
}

TEST(ServeWire, DtwRoundTrip)
{
    std::vector<apps::Sample> x{0, 3, 7, 2}, y{1, 3, 6};
    auto payload = encodeDtw(11, x, y);
    Request req;
    ASSERT_EQ(decode(payload, req), WireError::None);
    EXPECT_EQ(req.tag, RequestTag::Dtw);
    EXPECT_EQ(req.x, x);
    EXPECT_EQ(req.y, y);
}

TEST(ServeWire, GraphAlignUsesGraphAlphabet)
{
    auto payload = encodeGraphAlign(2, "ACCA", bio::kScoreInfinity);
    Request req;
    ASSERT_EQ(decode(payload, req), WireError::None);
    EXPECT_EQ(req.tag, RequestTag::GraphAlign);
    EXPECT_EQ(req.threshold, bio::kScoreInfinity);
    EXPECT_EQ(req.read->str(), "ACCA");
}

TEST(ServeWire, MapReadsParsesFasta)
{
    const std::string fasta = "; a comment\n"
                              ">read1 description\n"
                              "ACGT\nacgt\n"
                              "\r\n"
                              ">read2\n"
                              "TT AA\n";
    auto payload = encodeMapReads(4, fasta, 10);
    Request req;
    ASSERT_EQ(decode(payload, req), WireError::None);
    ASSERT_EQ(req.reads.size(), 2u);
    EXPECT_EQ(req.reads[0].str(), "ACGTACGT");
    EXPECT_EQ(req.reads[1].str(), "TTAA");
}

TEST(ServeWire, StatsAndPingAreBare)
{
    Request req;
    ASSERT_EQ(decode(encodeStatsRequest(1), req), WireError::None);
    EXPECT_EQ(req.tag, RequestTag::Stats);
    ASSERT_EQ(decode(encodePing(2), req), WireError::None);
    EXPECT_EQ(req.tag, RequestTag::Ping);
    ASSERT_EQ(decode(encodeMetricsRequest(3), req), WireError::None);
    EXPECT_EQ(req.tag, RequestTag::Metrics);
    EXPECT_EQ(req.id, 3u);
}

TEST(ServeWire, DeadlineRidesTheHeader)
{
    auto payload = encodePairwise(7, fig2b(), "GATTACA", "GCATGCT", 1500);
    Request req;
    ASSERT_EQ(decode(payload, req), WireError::None);
    EXPECT_EQ(req.deadlineMs, 1500u);

    // Omitted deadline decodes as "none".
    auto bare = encodeScreen(9, fig2b(), 5, "ACGT", "ACGA");
    ASSERT_EQ(decode(bare, req), WireError::None);
    EXPECT_EQ(req.deadlineMs, 0u);
}

TEST(ServeWire, DeadlineCarriedByEveryRequestKind)
{
    Request req;
    ASSERT_EQ(decode(encodeAffine(1, fig2b(), 4, 2, "ACGT", "AGT", 30),
                     req),
              WireError::None);
    EXPECT_EQ(req.deadlineMs, 30u);
    ASSERT_EQ(decode(encodeDtw(2, {0, 3}, {1, 3}, 40), req),
              WireError::None);
    EXPECT_EQ(req.deadlineMs, 40u);
    ASSERT_EQ(decode(encodeGraphAlign(3, "ACCA", 5, 50), req),
              WireError::None);
    EXPECT_EQ(req.deadlineMs, 50u);
    ASSERT_EQ(decode(encodeMapReads(4, ">r\nACGT\n", 5, 60), req),
              WireError::None);
    EXPECT_EQ(req.deadlineMs, 60u);
}

TEST(ServeWire, PriorityRidesTheHeader)
{
    // Every submitter takes a trailing priority; omitted means Normal.
    Request req;
    ASSERT_EQ(decode(encodePairwise(1, fig2b(), "AC", "GT", 0,
                                    Priority::Interactive),
                     req),
              WireError::None);
    EXPECT_EQ(req.priority, Priority::Interactive);
    ASSERT_EQ(decode(encodeDtw(2, {0, 3}, {1, 3}, 0, Priority::Batch),
                     req),
              WireError::None);
    EXPECT_EQ(req.priority, Priority::Batch);
    ASSERT_EQ(decode(encodeGraphAlign(3, "ACCA", 5), req),
              WireError::None);
    EXPECT_EQ(req.priority, Priority::Normal);
    EXPECT_STREQ(priorityName(Priority::Interactive), "interactive");
}

TEST(ServeWire, OutOfRangePriorityIsBadRequest)
{
    auto payload = encodePing(4);
    // The priority byte sits 4 (id) + 1 (tag) + 4 (deadline) in.
    payload[4 + 1 + 4] = 7;
    Request req;
    EXPECT_EQ(decode(payload, req), WireError::BadRequest);
}

TEST(ServeWire, HealthRequestIsBare)
{
    Request req;
    ASSERT_EQ(decode(encodeHealthRequest(6), req), WireError::None);
    EXPECT_EQ(req.tag, RequestTag::Health);
    EXPECT_EQ(req.id, 6u);
}

TEST(ServeWire, HealthResponseRoundTrip)
{
    Response out;
    out.id = 6;
    out.tag = RequestTag::Health;
    HealthReply h;
    h.state = HealthState::Brownout;
    h.uptimeMs = 123456;
    h.graphVersion = 3;
    out.health = h;

    Response in;
    ASSERT_EQ(decodeResponse(encodeResponse(out), in), WireError::None);
    ASSERT_TRUE(in.health.has_value());
    EXPECT_EQ(in.health->state, HealthState::Brownout);
    EXPECT_EQ(in.health->uptimeMs, 123456u);
    EXPECT_EQ(in.health->graphVersion, 3u);
    EXPECT_STREQ(healthStateName(HealthState::Brownout), "brownout");
}

// ---------------------------------------------------- response round trips

TEST(ServeWire, SolveResponseRoundTrip)
{
    Response out;
    out.id = 12;
    out.tag = RequestTag::Pairwise;
    SolveReply s;
    s.score = -3;
    s.racedCost = 9;
    s.latencyCycles = 14;
    s.cyclesUsed = 14;
    s.events = 120;
    s.nodes = 64;
    s.cellsFired = 60;
    s.completed = true;
    s.accepted = true;
    out.solve = s;

    Response in;
    ASSERT_EQ(decodeResponse(encodeResponse(out), in), WireError::None);
    EXPECT_EQ(in.id, 12u);
    EXPECT_EQ(in.status, Status::Ok);
    ASSERT_TRUE(in.solve.has_value());
    EXPECT_EQ(in.solve->score, -3);
    EXPECT_EQ(in.solve->racedCost, 9);
    EXPECT_EQ(in.solve->latencyCycles, 14u);
    EXPECT_EQ(in.solve->events, 120u);
    EXPECT_TRUE(in.solve->completed);
}

TEST(ServeWire, ErrorResponseCarriesMessageOnly)
{
    Response out;
    out.id = 5;
    out.tag = RequestTag::Dtw;
    out.status = Status::QueueFull;
    out.message = "admission queue at depth";

    Response in;
    ASSERT_EQ(decodeResponse(encodeResponse(out), in), WireError::None);
    EXPECT_EQ(in.status, Status::QueueFull);
    EXPECT_EQ(in.message, "admission queue at depth");
    EXPECT_FALSE(in.solve.has_value());
}

TEST(ServeWire, StatsResponseRoundTrip)
{
    Response out;
    out.id = 1;
    out.tag = RequestTag::Stats;
    QueueStatsWire q;
    q.enqueued = 10;
    q.completed = 7;
    q.rejectedQueueFull = 2;
    q.shedDeadline = 1;
    q.shedEvicted = 3;
    q.highWater = 4;
    q.classes[2].enqueued = 6;
    q.classes[2].completed = 5;
    q.classes[0].shedEvicted = 3;
    q.classes[0].rejectedResource = 2;
    out.queueStats = q;
    ShardStatsWire s;
    s.solves = 8;
    s.shardHits = 6;
    s.buildLocks = 2;
    out.shardStats = {s, s};

    Response in;
    ASSERT_EQ(decodeResponse(encodeResponse(out), in), WireError::None);
    ASSERT_TRUE(in.queueStats.has_value());
    EXPECT_EQ(in.queueStats->enqueued, 10u);
    EXPECT_EQ(in.queueStats->rejectedQueueFull, 2u);
    EXPECT_EQ(in.queueStats->shedDeadline, 1u);
    EXPECT_EQ(in.queueStats->shedEvicted, 3u);
    EXPECT_EQ(in.queueStats->classes[2].enqueued, 6u);
    EXPECT_EQ(in.queueStats->classes[2].completed, 5u);
    EXPECT_EQ(in.queueStats->classes[0].shedEvicted, 3u);
    EXPECT_EQ(in.queueStats->classes[0].rejectedResource, 2u);
    ASSERT_EQ(in.shardStats.size(), 2u);
    EXPECT_EQ(in.shardStats[1].shardHits, 6u);
}

TEST(ServeWire, MetricsResponseRoundTrip)
{
    Response out;
    out.id = 9;
    out.tag = RequestTag::Metrics;
    telemetry::Snapshot snap;
    snap.counters.push_back({"rl_serve_requests_total", 42});
    snap.counters.push_back({"rl_queue_completed_total", 40});
    snap.gauges.push_back({"rl_kernel_scratch_high_water", -3});
    telemetry::HistogramSnapshot h;
    h.name = "rl_serve_request_us";
    h.buckets.assign(telemetry::kHistogramBuckets, 0);
    h.buckets[0] = 5;
    h.buckets[11] = 7;
    h.count = 12;
    h.sum = 14336;
    snap.histograms.push_back(h);
    out.metrics = std::move(snap);

    Response in;
    ASSERT_EQ(decodeResponse(encodeResponse(out), in), WireError::None);
    EXPECT_EQ(in.tag, RequestTag::Metrics);
    ASSERT_TRUE(in.metrics.has_value());
    const telemetry::CounterSnapshot *requests =
        in.metrics->counter("rl_serve_requests_total");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->value, 42u);
    const telemetry::GaugeSnapshot *gauge =
        in.metrics->gauge("rl_kernel_scratch_high_water");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value, -3);
    const telemetry::HistogramSnapshot *hist =
        in.metrics->histogram("rl_serve_request_us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, 12u);
    EXPECT_EQ(hist->sum, 14336u);
    ASSERT_EQ(hist->buckets.size(), telemetry::kHistogramBuckets);
    EXPECT_EQ(hist->buckets[11], 7u);
}

TEST(ServeWire, MetricsResponseNameCapIsEnforced)
{
    Response out;
    out.id = 10;
    out.tag = RequestTag::Metrics;
    telemetry::Snapshot snap;
    snap.counters.push_back(
        {std::string(kMaxWireMetricName + 1, 'x'), 1});
    out.metrics = std::move(snap);

    // Same convention as every capped string on the wire: a name
    // over the admission cap reads as a typed truncation, never an
    // out-of-bounds walk.
    Response in;
    EXPECT_EQ(decodeResponse(encodeResponse(out), in),
              WireError::Truncated);
}

TEST(ServeWire, DeadlineExceededResponseRoundTrip)
{
    Response out;
    out.id = 12;
    out.tag = RequestTag::GraphAlign;
    out.status = Status::DeadlineExceeded;
    out.message = "deadline expired while queued";

    Response in;
    ASSERT_EQ(decodeResponse(encodeResponse(out), in), WireError::None);
    EXPECT_EQ(in.status, Status::DeadlineExceeded);
    EXPECT_EQ(in.message, "deadline expired while queued");
    EXPECT_FALSE(in.solve.has_value());
    EXPECT_STREQ(statusName(Status::DeadlineExceeded),
                 "deadline-exceeded");
}

// ------------------------------------------------- response golden bytes
//
// The round trips above pass whenever encode and decode agree, even if
// both change the layout together.  These pin the bytes themselves: one
// reply of every kind against its committed encoding, one field per
// hex group, in the order docs/serve.md lists them.

/** Lower-case hex of `bytes`, two digits a byte. */
std::string
hex(const std::vector<uint8_t> &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string s;
    for (uint8_t b : bytes) {
        s += kDigits[b >> 4];
        s += kDigits[b & 15];
    }
    return s;
}

/**
 * `reply` encodes to exactly `golden`, alone and as a frame, and the
 * golden bytes decode to a reply that encodes to them again.
 */
void
expectGolden(const Response &reply, const std::string &golden)
{
    const std::vector<uint8_t> payload = encodeResponse(reply);
    EXPECT_EQ(hex(payload), golden);
    std::vector<uint8_t> framed;
    encodeResponseFrame(reply, framed);
    EXPECT_EQ(framed, frame(payload));
    Response back;
    ASSERT_EQ(decodeResponse(payload, back), WireError::None);
    EXPECT_EQ(hex(encodeResponse(back)), golden);
}

/** Little-endian u64 `n` (n < 256), as the golden strings spell it. */
#define U64(n) n "00000000000000"

TEST(ServeWire, GoldenSolveReply)
{
    Response r;
    r.id = 12;
    r.tag = RequestTag::Pairwise;
    SolveReply &s = r.solve.emplace();
    s.score = -3;
    s.racedCost = 9;
    s.latencyCycles = 14;
    s.cyclesUsed = 13;
    s.events = 120;
    s.nodes = 64;
    s.cellsFired = 60;
    s.completed = true;
    s.accepted = false;
    expectGolden(r, "0c000000"
                    "00"       // Ok
                    "01"       // Pairwise
                    "00000000" // message ""
                    "fdffffffffffffff" U64("09") U64("0e") U64("0d")
                        U64("78") U64("40") U64("3c")
                    "01"   // completed
                    "00"); // accepted
}

TEST(ServeWire, GoldenMapReadsReply)
{
    Response r;
    r.id = 6;
    r.tag = RequestTag::MapReads;
    r.reads = {{5, 7, true}, {bio::kScoreInfinity, 8, false}};
    expectGolden(r, "06000000"
                    "00" "06" "00000000"
                    "02000000" // two reads
                    U64("05") U64("07") "01"
                    "ffffffffffffff1f" U64("08") "00");
}

TEST(ServeWire, GoldenStatsReply)
{
    // A distinct value in every field: a swap of any two shows.
    Response r;
    r.id = 7;
    r.tag = RequestTag::Stats;
    QueueStatsWire &q = r.queueStats.emplace();
    q.enqueued = 1;
    q.completed = 2;
    q.rejectedQueueFull = 3;
    q.rejectedOversized = 4;
    q.rejectedBadRequest = 5;
    q.rejectedResource = 6;
    q.rejectedShutdown = 7;
    q.shedDeadline = 8;
    q.shedEvicted = 9;
    q.inflight = 10;
    q.queued = 11;
    q.highWater = 12;
    uint64_t next = 13;
    for (ClassStatsWire &c : q.classes) {
        c.enqueued = next++;
        c.completed = next++;
        c.rejectedQueueFull = next++;
        c.rejectedResource = next++;
        c.shedDeadline = next++;
        c.shedEvicted = next++;
        c.queued = next++;
    }
    ShardStatsWire &e = r.shardStats.emplace_back();
    e.solves = 34;
    e.plansBuilt = 35;
    e.planCacheHits = 36;
    e.shardHits = 37;
    e.buildLocks = 38;
    expectGolden(
        r, "07000000"
           "00" "07" "00000000"
           // enqueued .. rejectedShutdown
           U64("01") U64("02") U64("03") U64("04") U64("05") U64("06")
               U64("07")
           // shedDeadline, shedEvicted, inflight, queued, highWater
           U64("08") U64("09") U64("0a") U64("0b") U64("0c")
           // batch, normal, interactive: enqueued, completed,
           // rejectedQueueFull, rejectedResource, shedDeadline,
           // shedEvicted, queued
           U64("0d") U64("0e") U64("0f") U64("10") U64("11") U64("12")
               U64("13")
           U64("14") U64("15") U64("16") U64("17") U64("18") U64("19")
               U64("1a")
           U64("1b") U64("1c") U64("1d") U64("1e") U64("1f") U64("20")
               U64("21")
           "01000000" // one engine row
           U64("22") U64("23") U64("24") U64("25") U64("26"));
}

TEST(ServeWire, GoldenPingAndHealthReplies)
{
    Response ping;
    ping.id = 8;
    ping.tag = RequestTag::Ping;
    expectGolden(ping, "08000000" "00" "08" "00000000");

    Response health;
    health.id = 10;
    health.tag = RequestTag::Health;
    health.health = HealthReply{HealthState::Brownout, 123456, 3};
    expectGolden(health, "0a000000"
                         "00" "0a" "00000000"
                         "02"               // Brownout
                         "40e2010000000000" // uptimeMs 123456
                         U64("03"));
}

TEST(ServeWire, GoldenMetricsReply)
{
    Response r;
    r.id = 9;
    r.tag = RequestTag::Metrics;
    telemetry::Snapshot &m = r.metrics.emplace();
    m.counters.push_back({"req", 42});
    m.gauges.push_back({"hw", -3});
    telemetry::HistogramSnapshot &h = m.histograms.emplace_back();
    h.name = "lat";
    h.buckets = {5, 0, 7};
    h.sum = 14336;
    h.count = 12;
    expectGolden(r, "09000000"
                    "00" "09" "00000000"
                    "01000000" "03000000" "726571" U64("2a")
                    "01000000" "02000000" "6877" "fdffffffffffffff"
                    "01000000" "03000000" "6c6174"
                    "03000000" U64("05") U64("00") U64("07")
                    "0038000000000000" // sum 14336
                    U64("0c"));
}

TEST(ServeWire, GoldenErrorReply)
{
    Response r;
    r.id = 5;
    r.tag = RequestTag::Dtw;
    r.status = Status::QueueFull;
    r.message = "queue full";
    expectGolden(r, "05000000"
                    "01" // QueueFull
                    "03" // Dtw
                    "0a000000" "71756575652066756c6c");
}

#undef U64

// --------------------------------------------------------- failure paths

TEST(ServeWire, EmptyPayloadIsTruncated)
{
    Request req;
    EXPECT_EQ(decode({}, req), WireError::Truncated);
}

TEST(ServeWire, EveryPrefixTruncationIsTyped)
{
    // Chop a valid frame at every length: each prefix must decode to
    // a typed error (never crash), and most to Truncated.
    auto payload = encodeScreen(21, fig2b(), 6, "GATTACA", "GCATGCT");
    for (size_t cut = 0; cut < payload.size(); ++cut) {
        std::vector<uint8_t> prefix(payload.begin(),
                                    payload.begin() + cut);
        Request req;
        EXPECT_NE(decode(prefix, req), WireError::None)
            << "prefix of " << cut << " bytes decoded successfully";
    }
}

TEST(ServeWire, UnknownTagIsTyped)
{
    std::vector<uint8_t> payload = {1, 0, 0, 0, 99};
    Request req;
    EXPECT_EQ(decode(payload, req), WireError::UnknownKind);
    EXPECT_EQ(req.id, 1u); // id still recovered for the error reply
}

TEST(ServeWire, TrailingGarbageIsBadRequest)
{
    auto payload = encodePing(3);
    payload.push_back(0xFF);
    Request req;
    EXPECT_EQ(decode(payload, req), WireError::BadRequest);
}

TEST(ServeWire, ForeignLettersAreBadRequest)
{
    auto payload = encodePairwise(1, fig2b(), "ACGT", "ACGX");
    Request req;
    EXPECT_EQ(decode(payload, req), WireError::BadRequest);
}

TEST(ServeWire, ZeroWeightMatrixIsBadRequest)
{
    // match = 0 breaks the grid kernel's minFinite() >= 1 contract;
    // the wire layer must reject it before the engine can assert.
    auto payload =
        encodePairwise(1, bio::ScoreMatrix::unitEdit(dna()), "AC", "GT");
    Request req;
    EXPECT_EQ(decode(payload, req), WireError::BadRequest);
}

TEST(ServeWire, InfinitePairIsRejectedForAffineOnly)
{
    bio::ScoreMatrix inf = bio::ScoreMatrix::dnaShortestPathInfMismatch();
    Request req;
    EXPECT_EQ(decode(encodePairwise(1, inf, "AC", "GT"), req),
              WireError::None);
    EXPECT_EQ(decode(encodeAffine(1, inf, 4, 2, "AC", "GT"), req),
              WireError::BadRequest);
}

TEST(ServeWire, BadAffineGapOrderIsBadRequest)
{
    // open must be >= extend >= 1.
    Request req;
    EXPECT_EQ(decode(encodeAffine(1, fig2b(), 1, 3, "AC", "GT"), req),
              WireError::BadRequest);
    EXPECT_EQ(decode(encodeAffine(1, fig2b(), 2, 0, "AC", "GT"), req),
              WireError::BadRequest);
}

TEST(ServeWire, NegativeScreenThresholdIsBadRequest)
{
    Request req;
    EXPECT_EQ(decode(encodeScreen(1, fig2b(), -4, "AC", "GT"), req),
              WireError::BadRequest);
}

TEST(ServeWire, EmptyDtwSignalIsBadRequest)
{
    Request req;
    EXPECT_EQ(decode(encodeDtw(1, {}, {1, 2}), req),
              WireError::BadRequest);
}

TEST(ServeWire, OutOfRangeDtwSampleIsBadRequest)
{
    Request req;
    EXPECT_EQ(decode(encodeDtw(1, {kMaxWireSample + 1}, {1}), req),
              WireError::BadRequest);
}

TEST(ServeWire, LyingStringLengthIsTruncated)
{
    // A sequence length prefix that promises more bytes than exist.
    auto payload = encodeGraphAlign(8, "ACGT", 5);
    // The read's length prefix sits 4 (id) + 1 (tag) + 4 (deadline)
    // + 1 (priority) + 8 (threshold) bytes in; bump it far beyond the
    // payload.
    payload[4 + 1 + 4 + 1 + 8] = 0xFF;
    Request req;
    EXPECT_EQ(decode(payload, req), WireError::Truncated);
}

TEST(ServeWire, FastaWithoutHeaderIsBadRequest)
{
    Request req;
    EXPECT_EQ(decode(encodeMapReads(1, "ACGT\n", 5), req),
              WireError::BadRequest);
}

TEST(ServeWire, FastaHeaderWithoutDataIsBadRequest)
{
    Request req;
    EXPECT_EQ(decode(encodeMapReads(1, ">empty\n", 5), req),
              WireError::BadRequest);
    EXPECT_EQ(decode(encodeMapReads(1, "", 5), req),
              WireError::BadRequest);
}

TEST(ServeWire, ResponseTruncationsAreTyped)
{
    Response out;
    out.id = 2;
    out.tag = RequestTag::Stats;
    out.queueStats = QueueStatsWire{};
    out.shardStats = {ShardStatsWire{}};
    auto payload = encodeResponse(out);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
        std::vector<uint8_t> prefix(payload.begin(),
                                    payload.begin() + cut);
        Response in;
        EXPECT_NE(decodeResponse(prefix, in), WireError::None);
    }
}

// ------------------------------------------- the connection's matrix slot

WireError
decodeThrough(MatrixSlot &slot, const std::vector<uint8_t> &payload,
              Request &out)
{
    return decodeRequest(payload, dna(), out, &slot);
}

/** The alphabet table a decoded matrix shares with its copies: one
 *  address for matrices copied from one decode. */
const std::string *
table(const Request &req)
{
    return &req.matrix->alphabet().letters();
}

TEST(ServeWire, SlotReusesIdenticalMatrixBytes)
{
    MatrixSlot slot;
    Request first, second, fresh;
    const auto screen = encodeScreen(2, fig2b(), 5, "GATTACA", "GATACA");
    ASSERT_EQ(decodeThrough(slot, encodePairwise(1, fig2b(), "ACGT", "AGGT"),
                            first),
              WireError::None);
    ASSERT_EQ(decodeThrough(slot, screen, second), WireError::None);
    ASSERT_EQ(decode(screen, fresh), WireError::None);
    EXPECT_EQ(table(second), table(first));
    EXPECT_NE(table(fresh), table(first));
    EXPECT_EQ(second.matrix->fingerprint(), fresh.matrix->fingerprint());
    EXPECT_EQ(second.threshold, 5);
    EXPECT_EQ(*second.a, *fresh.a);
    EXPECT_EQ(*second.b, *fresh.b);
}

TEST(ServeWire, SlotDecodesAChangedWeightAfresh)
{
    bio::ScoreMatrix changed = fig2b();
    changed.setPair(0, 1, 3);
    MatrixSlot slot;
    Request first, second, third;
    ASSERT_EQ(decodeThrough(slot, encodePairwise(1, fig2b(), "AC", "GT"),
                            first),
              WireError::None);
    ASSERT_EQ(decodeThrough(slot, encodePairwise(2, changed, "AC", "GT"),
                            second),
              WireError::None);
    EXPECT_NE(table(second), table(first));
    EXPECT_EQ(second.matrix->pair(0, 1), 3);
    EXPECT_EQ(second.matrix->fingerprint(), changed.fingerprint());
    // The changed matrix is now the slot's.
    ASSERT_EQ(decodeThrough(slot, encodePairwise(3, changed, "AC", "GT"),
                            third),
              WireError::None);
    EXPECT_EQ(table(third), table(second));
}

TEST(ServeWire, SlotPrimedByPairwiseStillRejectsForbiddenPairsForAffine)
{
    const auto inf = bio::ScoreMatrix::dnaShortestPathInfMismatch();
    MatrixSlot slot;
    Request req;
    ASSERT_EQ(decodeThrough(slot, encodePairwise(1, inf, "AC", "GT"), req),
              WireError::None);
    EXPECT_EQ(decodeThrough(slot, encodeAffine(2, inf, 4, 2, "AC", "GT"), req),
              WireError::BadRequest);
    EXPECT_EQ(decodeThrough(slot, encodePairwise(3, inf, "AC", "GT"), req),
              WireError::None);
}

TEST(ServeWire, FrameRejectedAfterItsMatrixLeavesTheNextVerdict)
{
    MatrixSlot slot;
    Request rejected, next, fresh;
    const auto foreign = encodePairwise(1, fig2b(), "ACGT", "ACGX");
    const auto valid = encodePairwise(2, fig2b(), "ACGT", "AGGT");
    EXPECT_EQ(decodeThrough(slot, foreign, rejected), WireError::BadRequest);
    ASSERT_EQ(decodeThrough(slot, valid, next), WireError::None);
    ASSERT_EQ(decode(valid, fresh), WireError::None);
    EXPECT_EQ(next.id, 2u);
    EXPECT_EQ(next.matrix->fingerprint(), fresh.matrix->fingerprint());
    EXPECT_EQ(*next.a, *fresh.a);
    EXPECT_EQ(*next.b, *fresh.b);
    EXPECT_EQ(decodeThrough(slot, foreign, rejected), WireError::BadRequest);
}

TEST(ServeWire, EveryPrefixThroughASlotDecodesAsWithout)
{
    // A slot holding the whole frame's matrix must not accept a frame
    // cut anywhere inside it, or change any other prefix's verdict.
    const auto payload = encodeScreen(21, fig2b(), 6, "GATTACA", "GCATGCT");
    MatrixSlot slot;
    Request req;
    ASSERT_EQ(decodeThrough(slot, payload, req), WireError::None);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
        const std::vector<uint8_t> prefix(payload.begin(),
                                          payload.begin() + cut);
        Request plain;
        EXPECT_EQ(decodeThrough(slot, prefix, req), decode(prefix, plain))
            << "prefix of " << cut << " bytes";
    }
}

// ------------------------------------------------------------- framing

TEST(ServeWire, FrameHeaderRoundTrip)
{
    auto framed = frame(encodePing(1));
    uint32_t length = 0;
    ASSERT_EQ(parseFrameHeader(framed.data(), framed.size(),
                               kDefaultMaxFrameBytes, length),
              WireError::None);
    EXPECT_EQ(length, framed.size() - 4);
}

TEST(ServeWire, ResponseFramesAppendIntoOneBatch)
{
    // A connection thread batches its replies: each frame is appended
    // whole, prefix included, and each decodes on its own.
    Response ping;
    ping.id = 4;
    ping.tag = RequestTag::Ping;
    Response error;
    error.id = 5;
    error.tag = RequestTag::Screen;
    error.status = Status::QueueFull;
    error.message = "admission queue at depth";
    std::vector<uint8_t> batch;
    encodeResponseFrame(ping, batch);
    const size_t first = batch.size();
    encodeResponseFrame(error, batch);

    size_t at = 0;
    for (const Response *want : {&ping, &error}) {
        uint32_t length = 0;
        ASSERT_EQ(parseFrameHeader(batch.data() + at, batch.size() - at,
                                   kDefaultMaxFrameBytes, length),
                  WireError::None);
        Response got;
        ASSERT_EQ(decodeResponse({batch.data() + at + kFrameHeaderBytes,
                                  length},
                                 got),
                  WireError::None);
        EXPECT_EQ(got.id, want->id);
        EXPECT_EQ(got.status, want->status);
        EXPECT_EQ(got.message, want->message);
        at += kFrameHeaderBytes + length;
        if (want == &ping)
            EXPECT_EQ(at, first);
    }
    EXPECT_EQ(at, batch.size());
}

TEST(ServeWire, HostileLengthPrefixIsOversized)
{
    const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    uint32_t length = 0;
    EXPECT_EQ(parseFrameHeader(huge, 4, kDefaultMaxFrameBytes, length),
              WireError::Oversized);
}

TEST(ServeWire, ShortHeaderIsTruncated)
{
    const uint8_t two[2] = {1, 0};
    uint32_t length = 0;
    EXPECT_EQ(parseFrameHeader(two, 2, kDefaultMaxFrameBytes, length),
              WireError::Truncated);
}

} // namespace
