/**
 * make_fuzz_corpus: deterministic wire-payload seed generator.
 *
 * Writes one file per seed into the directory given as argv[1]
 * (default fuzz/corpus/wire).  Seeds are *payloads* -- no frame
 * header -- which the wire harness feeds to both serve::decodeRequest()
 * and serve::decodeResponse(): one request of every kind
 * (`request_*`) plus truncations and a flipped-tag mutant, and one
 * valid reply of every kind (`reply_*`) plus an error reply.  A
 * coverage-guided fuzzer then starts from deep inside both decoders
 * instead of rediscovering the format byte by byte.  Run once after a
 * wire format change and commit the output.  The committed request
 * seeds without the `request_` prefix predate the header's priority
 * byte and differ from what this writes under their names, so to add
 * seeds, write to a scratch directory and copy only the new files.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "rl/serve/wire.h"

using namespace racelogic;

namespace {

void
writeSeed(const std::string &dir, const std::string &name,
          const std::vector<uint8_t> &payload)
{
    const std::string path = dir + "/" + name;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    out.write(reinterpret_cast<const char *>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    std::printf("%s (%zu bytes)\n", path.c_str(), payload.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : "fuzz/corpus/wire";

    const bio::ScoreMatrix costs = bio::ScoreMatrix::dnaShortestPath();

    writeSeed(dir, "request_pairwise",
              serve::encodePairwise(1, costs, "ACGT", "AGGT"));
    // The same weights over other letters: a plan of its own beside
    // request_pairwise's on the harness's shared engine.
    bio::ScoreMatrix relabelled(bio::Alphabet("TGCA"), bio::ScoreKind::Cost);
    for (bio::Symbol x = 0; x < 4; ++x) {
        relabelled.setGap(x, costs.gap(x));
        for (bio::Symbol y = 0; y < 4; ++y)
            relabelled.setPair(x, y, costs.pair(x, y));
    }
    writeSeed(dir, "request_pairwise_letters",
              serve::encodePairwise(15, relabelled, "ACGT", "AGGT"));
    writeSeed(dir, "request_affine",
              serve::encodeAffine(2, costs, 2, 1, "ACGTAC", "ACTAC"));
    writeSeed(dir, "request_screen",
              serve::encodeScreen(3, costs, 4, "ACGT", "ACCT"));
    writeSeed(dir, "request_dtw",
              serve::encodeDtw(4, {0, 3, 5, 3, 0}, {0, 2, 5, 2}));
    writeSeed(dir, "request_graph_align",
              serve::encodeGraphAlign(5, "ACTGACTTGATT", 6));
    writeSeed(dir, "request_map_reads",
              serve::encodeMapReads(6, ">r1\nACTGA\n>r2\nGATT\n", 8));
    writeSeed(dir, "request_stats", serve::encodeStatsRequest(7));
    writeSeed(dir, "request_ping", serve::encodePing(8));
    writeSeed(dir, "request_metrics", serve::encodeMetricsRequest(13));
    writeSeed(dir, "request_health", serve::encodeHealthRequest(14));
    writeSeed(dir, "deadline",
              serve::encodePairwise(9, costs, "ACGT", "AGGT", 250));

    // Structured invalids: the decoder's typed-rejection paths.
    auto truncated = serve::encodePairwise(10, costs, "ACGT", "AGGT");
    truncated.resize(truncated.size() / 2);
    writeSeed(dir, "truncated_pairwise", truncated);

    auto flipped = serve::encodeDtw(11, {1, 2, 3}, {3, 2, 1});
    flipped[4] = 0x7f; // unknown request tag
    writeSeed(dir, "unknown_tag", flipped);

    writeSeed(dir, "header_only", serve::encodePing(12));
    writeSeed(dir, "empty", {});

    // Replies, one of every kind, as a daemon encodes them.
    auto reply = [](uint32_t id, serve::RequestTag tag) {
        serve::Response r;
        r.id = id;
        r.tag = tag;
        return r;
    };
    const std::pair<const char *, serve::RequestTag> solveKinds[] = {
        {"reply_pairwise", serve::RequestTag::Pairwise},
        {"reply_affine", serve::RequestTag::Affine},
        {"reply_dtw", serve::RequestTag::Dtw},
        {"reply_screen", serve::RequestTag::Screen},
        {"reply_graph_align", serve::RequestTag::GraphAlign},
    };
    for (const auto &[name, tag] : solveKinds) {
        serve::Response r = reply(20, tag);
        r.solve = serve::SolveReply{3, 3, 7, 7, 40, 25, 24, true, true};
        writeSeed(dir, name, serve::encodeResponse(r));
    }

    serve::Response mapReads = reply(21, serve::RequestTag::MapReads);
    mapReads.reads = {{2, 5, true}, {bio::kScoreInfinity, 8, false}};
    writeSeed(dir, "reply_map_reads", serve::encodeResponse(mapReads));

    serve::Response stats = reply(22, serve::RequestTag::Stats);
    serve::QueueStatsWire &ledger = stats.queueStats.emplace();
    ledger.enqueued = 9;
    ledger.completed = 8;
    ledger.rejectedQueueFull = 1;
    ledger.inflight = 1;
    ledger.highWater = 3;
    ledger.classes[1] = {9, 8, 1, 0, 0, 0, 0};
    stats.shardStats = {{9, 2, 7, 0, 0}};
    writeSeed(dir, "reply_stats", serve::encodeResponse(stats));

    writeSeed(dir, "reply_ping",
              serve::encodeResponse(reply(23, serve::RequestTag::Ping)));

    serve::Response health = reply(24, serve::RequestTag::Health);
    health.health = serve::HealthReply{serve::HealthState::Ready, 1500, 1};
    writeSeed(dir, "reply_health", serve::encodeResponse(health));

    serve::Response metrics = reply(25, serve::RequestTag::Metrics);
    telemetry::Snapshot &snap = metrics.metrics.emplace();
    snap.counters.push_back({"rl_serve_requests_total", 9});
    snap.gauges.push_back({"rl_queue_inflight", 1});
    snap.histograms.push_back({.name = "rl_serve_request_us",
                               .buckets = {0, 4, 5},
                               .count = 9,
                               .sum = 90});
    writeSeed(dir, "reply_metrics", serve::encodeResponse(metrics));

    serve::Response error = reply(26, serve::RequestTag::Screen);
    error.status = serve::Status::QueueFull;
    error.message = "admission queue at depth";
    writeSeed(dir, "reply_error", serve::encodeResponse(error));
    return 0;
}
