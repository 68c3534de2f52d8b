#include "workload.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "rl/bio/align_dp.h"
#include "rl/bio/sequence.h"
#include "rl/pangraph/generate.h"
#include "rl/pangraph/gfa.h"
#include "rl/pangraph/graph_align_dp.h"
#include "rl/util/random.h"

namespace perfbench {

namespace {

using rl::bio::Alphabet;
using rl::bio::MutationModel;
using rl::bio::Sequence;

// Pool sizes: large enough that a pool never repeats inside the plan
// caches' reach, small enough that the oracle pass stays well under a
// second per run.
constexpr size_t kPairwisePool = 2048;
constexpr size_t kScreenPool = 4096;
constexpr size_t kGraphPool = 256;

/** The pangenome file graph-map hands the daemon, in the run directory. */
constexpr const char *kGfaFile = "graph.gfa";

/**
 * graph-map's product states per read, (graph chars + 1) x (mean read
 * length + 1): the median over generated graphs, and the band accepted.
 */
constexpr double kGraphWork = 113000;
constexpr double kGraphWorkTolerance = 1000;

/** The first-successor source-to-sink walk, spelled. */
std::string
referenceWalk(const rl::pangraph::VariationGraph &graph)
{
    std::string spelled;
    rl::pangraph::SegmentId at = graph.sources().front();
    for (;;) {
        spelled += graph.segment(at).label.str();
        const auto &next = graph.outLinks(at);
        if (next.empty())
            return spelled;
        at = next.front();
    }
}

void
writeRequests(const std::string &path, const std::vector<Item> &items)
{
    std::ofstream out(path);
    for (const Item &item : items)
        out << item.a << '\t' << item.b << '\t' << item.expected << '\n';
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        std::exit(1);
    }
}

} // namespace

std::optional<Kind>
parseKind(const std::string &name)
{
    if (name == "pairwise-full")
        return Kind::PairwiseFull;
    if (name == "screen-short")
        return Kind::ScreenShort;
    if (name == "graph-map")
        return Kind::GraphMap;
    return std::nullopt;
}

std::vector<std::string>
Workload::daemonArgs(const std::string &socket) const
{
    std::vector<std::string> args = {"--unix", socket};
    if (graph) {
        args.push_back("--gfa");
        args.push_back(kGfaFile);
    }
    return args;
}

Workload
makeWorkload(Kind kind, uint64_t seed, const std::string &dir)
{
    Workload w;
    w.kind = kind;
    const Alphabet &dna = Alphabet::dna();
    rl::util::Rng rng(seed);
    auto lengthDraw = [](rl::util::Rng &r) {
        return static_cast<size_t>(r.uniformInt(96, 160));
    };

    switch (kind) {
    case Kind::PairwiseFull:
        w.name = "pairwise-full";
        for (size_t i = 0; i < kPairwisePool; ++i) {
            Item item;
            item.a = Sequence::random(rng, dna, lengthDraw(rng)).str();
            item.b = Sequence::random(rng, dna, lengthDraw(rng)).str();
            w.items.push_back(std::move(item));
        }
        break;
    case Kind::ScreenShort: {
        w.name = "screen-short";
        w.threshold = 40;
        const Sequence query = Sequence::random(rng, dna, 32);
        // Exactly one candidate in ten is a mutated copy of the query.
        std::vector<uint8_t> related(kScreenPool, 0);
        for (size_t i = 0; i < kScreenPool / 10; ++i)
            related[i] = 1;
        rng.shuffle(related);
        for (size_t i = 0; i < kScreenPool; ++i) {
            Item item;
            item.a = query.str();
            item.b = related[i] ? rl::bio::mutate(rng, query,
                                                  MutationModel::uniform(0.1))
                                      .str()
                                : Sequence::random(rng, dna, 32).str();
            w.items.push_back(std::move(item));
        }
        break;
    }
    case Kind::GraphMap: {
        w.name = "graph-map";
        rl::pangraph::VariationGraphParams params;
        params.backboneSegments = 64;
        params.minLabel = 1;
        params.maxLabel = 8;
        params.snpDensity = 0.4;
        params.insertDensity = 0.2;
        params.deleteDensity = 0.2;
        // Graph size and read length vary with the seed, and alignment
        // work scales with their product; draw graphs until that work
        // is within 1% of the target, so every seed costs the same.
        rl::pangraph::VariationGraph generated(dna);
        std::vector<std::string> reads;
        for (;;) {
            generated = rl::pangraph::randomVariationGraph(rng, dna, params);
            reads.clear();
            double readChars = 0;
            for (size_t i = 0; i < kGraphPool; ++i) {
                reads.push_back(rl::pangraph::sampleRead(
                                    rng, generated, MutationModel::uniform(0.2))
                                    .str());
                readChars += static_cast<double>(reads.back().size());
            }
            const double work =
                static_cast<double>(generated.totalLabelLength() + 1) *
                (readChars / kGraphPool + 1);
            if (std::abs(work - kGraphWork) <= kGraphWorkTolerance)
                break;
        }
        {
            std::ofstream gfa(dir + "/" + kGfaFile);
            rl::pangraph::writeGfa(gfa, generated);
        }
        // The oracle and the traced layers use the graph exactly as the
        // daemon will see it: parsed back from the file.
        w.graph = std::make_shared<const rl::pangraph::VariationGraph>(
            rl::pangraph::readGfaFile(dir + "/" + kGfaFile, dna));
        const std::string reference = referenceWalk(*w.graph);
        for (std::string &read : reads)
            w.items.push_back(Item{std::move(read), reference, 0});
        break;
    }
    }

    for (Item &item : w.items) {
        const Sequence a(dna, item.a);
        item.expected =
            kind == Kind::GraphMap
                ? rl::pangraph::graphAlignDp(*w.graph, a, w.costs).distance
                : rl::bio::globalScore(a, Sequence(dna, item.b), w.costs);
    }
    writeRequests(dir + "/requests.tsv", w.items);
    return w;
}

} // namespace perfbench
