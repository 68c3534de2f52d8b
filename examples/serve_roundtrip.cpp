/**
 * serve_roundtrip: the alignment daemon, in-process, end to end.
 *
 * Starts an AlignServer on an ephemeral loopback TCP port, speaks the
 * length-prefixed wire protocol through a ServeClient, and shows the
 * three behaviors the serving layer adds on top of api::RaceEngine:
 * served solves identical to direct ones, typed admission rejections,
 * and the shared engine's plan-cache counters, which show warm
 * traffic reusing one planned fabric.
 *
 * Run: ./serve_roundtrip
 */

#include <cstdio>
#include <string>

#include "rl/api/api.h"
#include "rl/serve/client.h"
#include "rl/serve/server.h"

using namespace racelogic;

int
main()
{
    serve::ServerConfig cfg;
    cfg.tcpPort = 0; // ephemeral: the kernel picks, server.port() tells
    cfg.workers = 2;
    cfg.queueDepth = 8;
    cfg.engine.withEstimates = false;
    serve::AlignServer server(std::move(cfg));
    if (!server.start()) {
        std::perror("serve_roundtrip: bind failed");
        return 1;
    }
    std::printf("daemon up on 127.0.0.1:%u\n\n",
                static_cast<unsigned>(server.port()));

    serve::ServeClient client = serve::ServeClient::overTcp(server.port());
    const bio::ScoreMatrix costs = bio::ScoreMatrix::dnaShortestPath();
    const std::string a = "GATTACAGATTACA", b = "GATCACAGTTTACA";

    // --- 1. a served solve vs. the engine called directly ---------
    client.submitPairwise(1, costs, a, b);
    serve::Response response;
    client.receive(response);

    api::RaceEngine engine;
    const api::RaceResult direct =
        engine.solve(api::RaceProblem::pairwiseAlignment(
            costs, bio::Sequence(bio::Alphabet("ACGT"), a),
            bio::Sequence(bio::Alphabet("ACGT"), b)));

    std::printf("served score %lld in %llu cycles; direct engine says "
                "%lld in %llu -- %s\n",
                static_cast<long long>(response.solve->score),
                static_cast<unsigned long long>(
                    response.solve->latencyCycles),
                static_cast<long long>(direct.score),
                static_cast<unsigned long long>(direct.latencyCycles),
                response.solve->score == direct.score ? "identical"
                                                      : "MISMATCH");

    // --- 2. typed rejections, not crashes -------------------------
    client.submitRaw({42, 0, 0, 0, 200}); // tag 200 does not exist
    client.receive(response);
    std::printf("garbage tag answered with status '%s' (%s), id %u\n",
                serve::statusName(response.status),
                response.message.c_str(), response.id);

    // --- 3. warm traffic reuses one plan ---------------------------
    for (uint32_t id = 10; id < 30; ++id) {
        client.submitPairwise(id, costs, a, b);
        client.receive(response);
    }
    const api::EngineStats stats = server.engineStats();
    std::printf("engine served %llu solves: %llu plans built, %llu "
                "plan-cache hits\n",
                static_cast<unsigned long long>(stats.solves),
                static_cast<unsigned long long>(stats.plansBuilt),
                static_cast<unsigned long long>(stats.planCacheHits));

    server.stop();
    std::printf("\ndaemon drained and stopped cleanly\n");
    return 0;
}
