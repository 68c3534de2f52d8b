/**
 * @file
 * The serve layer's anti-drift contract, pinned by tests:
 *
 *  1. Every library rl::ErrorCode maps to exactly one wire Status
 *     and one WireError (statusForCode / wireErrorForCode are total
 *     and match the table in docs/errors.md).
 *  2. Decode-accepted implies library-valid: any request payload
 *     serve::decodeRequest() accepts -- including randomly mutated
 *     and truncated ones -- builds problems api::validateProblem()
 *     approves, so no engine fatal is reachable from wire bytes.
 *  3. The product-state budget surfaces end to end: a GraphAlign
 *     request over maxProductStates earns a typed ResourceExhausted
 *     reply, the rejection is counted, and the daemon keeps serving.
 *  4. No request order can crash the daemon: one weight table over
 *     two orders of the letters gets a plan, and a correct reply,
 *     for each.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rl/api/api.h"
#include "rl/bio/align_dp.h"
#include "rl/pangraph/gfa.h"
#include "rl/serve/client.h"
#include "rl/serve/server.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using namespace racelogic::serve;
using Status = racelogic::serve::Status; // not rl::Status (library errors)

bio::ScoreMatrix
fig2b()
{
    return bio::ScoreMatrix::dnaShortestPath();
}

std::shared_ptr<const pangraph::VariationGraph>
bubbleGraph()
{
    const std::string gfa = "H\tVN:Z:1.0\n"
                            "S\ts1\tACG\n"
                            "S\ts2\tT\n"
                            "S\ts3\tC\n"
                            "S\ts4\tGGA\n"
                            "L\ts1\t+\ts2\t+\t0M\n"
                            "L\ts1\t+\ts3\t+\t0M\n"
                            "L\ts2\t+\ts4\t+\t0M\n"
                            "L\ts3\t+\ts4\t+\t0M\n";
    std::istringstream in(gfa);
    return std::make_shared<pangraph::VariationGraph>(
        pangraph::readGfa(in, bio::Alphabet("ACGT")));
}

// ----------------------------------------------- the mapping, pinned

TEST(ServeAntiDrift, EveryErrorCodeMapsToExactlyOneWireStatus)
{
    using racelogic::ErrorCode;
    const std::vector<std::pair<ErrorCode, Status>> expected = {
        {ErrorCode::Ok, Status::Ok},
        {ErrorCode::InvalidArgument, Status::BadRequest},
        {ErrorCode::ParseError, Status::BadRequest},
        {ErrorCode::Unsupported, Status::BadRequest},
        {ErrorCode::NotFound, Status::BadRequest},
        {ErrorCode::Oversized, Status::Oversized},
        {ErrorCode::ResourceExhausted, Status::ResourceExhausted},
    };
    for (const auto &[code, status] : expected)
        EXPECT_EQ(statusForCode(code), status)
            << "code " << static_cast<int>(code);

    const std::vector<std::pair<ErrorCode, WireError>> decode = {
        {ErrorCode::Ok, WireError::None},
        {ErrorCode::InvalidArgument, WireError::BadRequest},
        {ErrorCode::ParseError, WireError::BadRequest},
        {ErrorCode::Unsupported, WireError::BadRequest},
        {ErrorCode::NotFound, WireError::BadRequest},
        {ErrorCode::Oversized, WireError::Oversized},
        {ErrorCode::ResourceExhausted, WireError::Oversized},
    };
    for (const auto &[code, wire] : decode)
        EXPECT_EQ(wireErrorForCode(code), wire)
            << "code " << static_cast<int>(code);
}

// -------------------------------- decode-accepted => library-valid

/** Mirror AlignServer::handleRequest's problem construction. */
std::vector<api::RaceProblem>
buildProblems(Request &request,
              const std::shared_ptr<const pangraph::VariationGraph> &g,
              const bio::ScoreMatrix &graphMatrix)
{
    std::vector<api::RaceProblem> problems;
    switch (request.tag) {
    case RequestTag::Pairwise:
        problems.push_back(api::RaceProblem::pairwiseAlignment(
            *request.matrix, *request.a, *request.b));
        break;
    case RequestTag::Affine:
        problems.push_back(api::RaceProblem::affineAlignment(
            *request.matrix,
            bio::AffineGapCosts{request.open, request.extend},
            *request.a, *request.b));
        break;
    case RequestTag::Screen:
        problems.push_back(api::RaceProblem::thresholdScreen(
            *request.matrix, request.threshold, *request.a,
            *request.b));
        break;
    case RequestTag::Dtw:
        problems.push_back(api::RaceProblem::dtw(
            std::move(request.x), std::move(request.y)));
        break;
    case RequestTag::GraphAlign:
        problems.push_back(api::RaceProblem::graphAlign(
            graphMatrix, *request.read, g, request.threshold));
        break;
    case RequestTag::MapReads:
        for (bio::Sequence &read : request.reads)
            problems.push_back(api::RaceProblem::graphAlign(
                graphMatrix, std::move(read), g, request.threshold));
        break;
    case RequestTag::Stats:
    case RequestTag::Ping:
    case RequestTag::Metrics:
    case RequestTag::Health:
        break;
    }
    return problems;
}

TEST(ServeAntiDrift, DecodeAcceptedImpliesValidateOk)
{
    auto graph = bubbleGraph();
    const bio::ScoreMatrix graphMatrix = fig2b();
    util::Rng rng(20260808);

    auto randomDna = [&](size_t maxLen) {
        static const char letters[] = "ACGT";
        std::string s;
        const size_t n =
            static_cast<size_t>(rng.uniformInt(0, maxLen));
        for (size_t i = 0; i < n; ++i)
            s.push_back(letters[rng.uniformInt(0, 3)]);
        return s;
    };

    size_t accepted = 0, rejected = 0;
    for (int round = 0; round < 400; ++round) {
        // A valid payload of a random kind ...
        std::vector<uint8_t> payload;
        switch (rng.uniformInt(0, 5)) {
        case 0:
            payload = encodePairwise(1, fig2b(), randomDna(24),
                                     randomDna(24));
            break;
        case 1:
            payload = encodeAffine(2, fig2b(), 3, 1,
                                   randomDna(23) + "A",
                                   randomDna(23) + "C");
            break;
        case 2:
            payload = encodeScreen(
                3, fig2b(),
                static_cast<bio::Score>(rng.uniformInt(0, 40)),
                randomDna(24), randomDna(24));
            break;
        case 3: {
            std::vector<apps::Sample> x, y;
            for (int i = 0, n = rng.uniformInt(1, 16); i < n; ++i)
                x.push_back(rng.uniformInt(0, 64));
            for (int i = 0, n = rng.uniformInt(1, 16); i < n; ++i)
                y.push_back(rng.uniformInt(0, 64));
            payload = encodeDtw(4, x, y);
            break;
        }
        case 4:
            payload = encodeGraphAlign(
                5, randomDna(16),
                static_cast<bio::Score>(rng.uniformInt(0, 20)));
            break;
        default:
            payload = encodeMapReads(
                6, ">r1\n" + randomDna(15) + "A\n>r2\nACGT\n",
                static_cast<bio::Score>(rng.uniformInt(0, 20)));
            break;
        }

        // ... then usually corrupted: flipped bytes or truncation.
        const int mutation = rng.uniformInt(0, 3);
        if (mutation == 1 && !payload.empty()) {
            for (int flips = rng.uniformInt(1, 8); flips > 0; --flips)
                payload[static_cast<size_t>(rng.uniformInt(
                    0, payload.size() - 1))] ^=
                    static_cast<uint8_t>(rng.uniformInt(1, 255));
        } else if (mutation == 2 && !payload.empty()) {
            payload.resize(static_cast<size_t>(
                rng.uniformInt(0, payload.size() - 1)));
        }

        Request request;
        const WireError error =
            decodeRequest(payload, graph->alphabet(), request);
        if (error != WireError::None) {
            ++rejected;
            continue;
        }
        ++accepted;
        std::vector<api::RaceProblem> problems =
            buildProblems(request, graph, graphMatrix);
        for (const api::RaceProblem &problem : problems) {
            racelogic::Status deep = api::validateProblem(problem);
            EXPECT_TRUE(deep.ok())
                << "decode accepted a payload validateProblem "
                   "rejects: "
                << deep.message();
        }
    }
    // The generator must exercise both verdicts or the property is
    // vacuous.
    EXPECT_GT(accepted, 50u);
    EXPECT_GT(rejected, 50u);
}

// -------------------------------- the budget, end to end on a socket

TEST(ServeAntiDrift, ProductStateBudgetRejectsTypedAndDaemonServesOn)
{
    ServerConfig cfg;
    cfg.tcpPort = 0;
    cfg.workers = 2;
    cfg.queueDepth = 8;
    cfg.graph = bubbleGraph();
    cfg.graphMatrix = fig2b();
    // Tiny compute budget: the bubble graph has 8 label characters
    // (9 positions), so any read of 2+ bp builds a product of
    // (m+1)*9+1 >= 28 states.
    cfg.engine.maxProductStates = 20;

    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());
    ASSERT_TRUE(client.ok());

    // Over budget: typed ResourceExhausted, with the budget in the
    // message, and the rejection counted.
    ASSERT_TRUE(client.submitGraphAlign(71, "ACGTTGGA", 8));
    Response response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::ResourceExhausted);
    EXPECT_NE(response.message.find("budget"), std::string::npos);

    // The daemon is unharmed: a modest pairwise solve still works...
    ASSERT_TRUE(client.submitPairwise(72, fig2b(), "ACGT", "AGGT"));
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::Ok);
    ASSERT_TRUE(response.solve.has_value());

    // ... and the ledger shows exactly one compute-budget rejection.
    // The completed count is retired by the worker *after* the
    // solve's reply is flushed, so poll briefly instead of racing it.
    uint32_t statsId = 73;
    for (int attempt = 0;; ++attempt) {
        ASSERT_TRUE(client.submitStats(statsId++));
        ASSERT_TRUE(client.receive(response));
        ASSERT_TRUE(response.queueStats.has_value());
        if (response.queueStats->completed >= 1 || attempt >= 200)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(response.queueStats->rejectedResource, 1u);
    EXPECT_EQ(response.queueStats->completed, 1u);

    server.stop();
}

// A solve under the budget still runs: the ceiling is a ceiling,
// not a switch that disables graph alignment.
TEST(ServeAntiDrift, UnderBudgetGraphAlignStillSolves)
{
    ServerConfig cfg;
    cfg.tcpPort = 0;
    cfg.workers = 1;
    cfg.graph = bubbleGraph();
    cfg.graphMatrix = fig2b();
    cfg.engine.maxProductStates = 1000;

    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());
    ASSERT_TRUE(client.ok());

    // Race-ready weights price even matches at >= 1, so an exact
    // 7 bp walk costs 7; 20 accepts it comfortably.
    ASSERT_TRUE(client.submitGraphAlign(81, "ACGTGGA", 20));
    Response response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::Ok);
    ASSERT_TRUE(response.solve.has_value());
    EXPECT_TRUE(response.solve->accepted);

    server.stop();
}

// ------------------------------- letters are part of a plan's identity

TEST(ServeAntiDrift, SameWeightsOverOtherLettersBothSolve)
{
    // Fig. 2b's weights over ACGT and over TGCA, on one connection and
    // so one matrix slot and one engine: each matrix races on a plan
    // over its own letters, never on the other's cached one.
    ServerConfig cfg;
    cfg.tcpPort = 0;
    cfg.workers = 1;
    cfg.graph = bubbleGraph();
    cfg.graphMatrix = fig2b();
    AlignServer server(std::move(cfg));
    ASSERT_TRUE(server.start());
    ServeClient client = ServeClient::overTcp(server.port());
    ASSERT_TRUE(client.ok());

    const bio::ScoreMatrix acgt = fig2b();
    const bio::ScoreMatrix tgca = [&] {
        bio::ScoreMatrix m(bio::Alphabet("TGCA"), bio::ScoreKind::Cost);
        for (bio::Symbol x = 0; x < 4; ++x) {
            m.setGap(x, acgt.gap(x));
            for (bio::Symbol y = 0; y < 4; ++y)
                m.setPair(x, y, acgt.pair(x, y));
        }
        return m;
    }();
    const std::string a = "ACGTTGCA", b = "AGGTTCA";
    uint32_t id = 90;
    Response response;
    for (int round = 0; round < 2; ++round)
        for (const bio::ScoreMatrix *costs : {&acgt, &tgca}) {
            const std::string over = costs->alphabet().letters();
            const bio::Score want =
                bio::globalScore(bio::Sequence(costs->alphabet(), a),
                                 bio::Sequence(costs->alphabet(), b), *costs);
            ASSERT_TRUE(client.submitPairwise(++id, *costs, a, b));
            ASSERT_TRUE(client.receive(response));
            ASSERT_EQ(response.status, Status::Ok) << over << ": "
                                                   << response.message;
            ASSERT_TRUE(response.solve.has_value());
            EXPECT_EQ(response.solve->score, want) << over;
            // A screen at the score accepts; one below it rejects.
            for (bio::Score threshold : {want, want - 1}) {
                ASSERT_TRUE(
                    client.submitScreen(++id, *costs, threshold, a, b));
                ASSERT_TRUE(client.receive(response));
                ASSERT_EQ(response.status, Status::Ok)
                    << over << ": " << response.message;
                ASSERT_TRUE(response.solve.has_value());
                EXPECT_EQ(response.solve->accepted, want <= threshold)
                    << over << " at threshold " << threshold;
            }
        }

    ASSERT_TRUE(client.submitPing(++id));
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.tag, RequestTag::Ping);
    server.stop();
}

} // namespace
