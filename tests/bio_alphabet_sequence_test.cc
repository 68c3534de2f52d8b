/**
 * @file
 * Unit tests for rl/bio alphabets, sequences, and the mutation /
 * screening workload generators.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "rl/bio/alphabet.h"
#include "rl/bio/sequence.h"
#include "rl/util/random.h"

namespace {

using namespace racelogic;
using bio::Alphabet;
using bio::Sequence;

// ----------------------------------------------------------- alphabet

TEST(Alphabet, DnaBasics)
{
    const Alphabet &dna = Alphabet::dna();
    EXPECT_EQ(dna.size(), 4u);
    EXPECT_EQ(dna.bitsPerSymbol(), 2u);
    EXPECT_EQ(dna.letter(dna.encode('G')), 'G');
    EXPECT_TRUE(dna.contains('T'));
    EXPECT_FALSE(dna.contains('U'));
}

TEST(Alphabet, ProteinBasics)
{
    const Alphabet &aa = Alphabet::protein();
    EXPECT_EQ(aa.size(), 20u);
    EXPECT_EQ(aa.bitsPerSymbol(), 5u);
    EXPECT_EQ(aa.letters(), "ARNDCQEGHILKMFPSTWYV");
}

TEST(Alphabet, RoundTripEncoding)
{
    const Alphabet &dna = Alphabet::dna();
    std::string text = "GATTACA";
    EXPECT_EQ(dna.decodeString(dna.encodeString(text)), text);
}

TEST(Alphabet, BinaryAlphabetSingleBit)
{
    EXPECT_EQ(Alphabet::binary().bitsPerSymbol(), 1u);
}

TEST(AlphabetDeath, UnknownLetter)
{
    EXPECT_EXIT(Alphabet::dna().encode('Z'),
                ::testing::ExitedWithCode(1), "not in alphabet");
}

TEST(AlphabetDeath, DuplicateLetters)
{
    EXPECT_EXIT(Alphabet("AAB"), ::testing::ExitedWithCode(1),
                "duplicate");
}

TEST(Alphabet, TryMakeRejectsDuplicateLettersTyped)
{
    auto alphabet = Alphabet::tryMake("AAB");
    ASSERT_FALSE(alphabet.ok());
    EXPECT_EQ(alphabet.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(alphabet.status().message().find("duplicate"),
              std::string::npos);
}

TEST(Alphabet, MovedFromStillAnswers)
{
    Alphabet from("ACGT");
    const Alphabet to = std::move(from);
    // A moved-from alphabet is the empty one: no crash, no letter.
    EXPECT_EQ(from.size(), 0u); // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(from == to);
    EXPECT_FALSE(from.contains('A'));
    EXPECT_EQ(to.size(), 4u);
    EXPECT_TRUE(to == Alphabet::dna());
    from = to; // and takes a new value
    EXPECT_TRUE(from == to);
}

TEST(Alphabet, CopiesShareOneTableAcrossThreads)
{
    // Copies made and dropped on four threads share one table; the
    // TSan job runs this suite.
    const Alphabet shared("ACGT", "DNA");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&shared] {
            for (int i = 0; i < 2000; ++i) {
                const Alphabet copy = shared;
                const Sequence s(copy, "GATTACA");
                EXPECT_EQ(&s.alphabet().letters(), &shared.letters());
                EXPECT_EQ(copy.encode('T'), 3);
            }
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(shared.size(), 4u);
}

TEST(Sequence, TryEncodeRejectsForeignLettersTyped)
{
    auto seq = Sequence::tryEncode(Alphabet::dna(), "ACGU");
    ASSERT_FALSE(seq.ok());
    EXPECT_EQ(seq.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(seq.status().message().find("not in alphabet"),
              std::string::npos);
}

// ----------------------------------------------------------- sequence

TEST(Sequence, FromString)
{
    Sequence s(Alphabet::dna(), "ACTGAGA");
    EXPECT_EQ(s.size(), 7u);
    EXPECT_EQ(s.str(), "ACTGAGA");
    EXPECT_EQ(s[0], Alphabet::dna().encode('A'));
}

TEST(Sequence, Slice)
{
    Sequence s(Alphabet::dna(), "ACTGAGA");
    EXPECT_EQ(s.slice(2, 3).str(), "TGA");
    EXPECT_EQ(s.slice(0, 0).str(), "");
}

TEST(Sequence, RandomHasRequestedLengthAndValidSymbols)
{
    util::Rng rng(1);
    Sequence s = Sequence::random(rng, Alphabet::protein(), 300);
    EXPECT_EQ(s.size(), 300u);
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_LT(s[i], 20);
}

TEST(Sequence, RandomIsSeedDeterministic)
{
    util::Rng a(9), b(9);
    EXPECT_EQ(Sequence::random(a, Alphabet::dna(), 64),
              Sequence::random(b, Alphabet::dna(), 64));
}

// ----------------------------------------------------------- mutation

TEST(Mutate, ZeroRatesIsIdentity)
{
    util::Rng rng(2);
    Sequence s = Sequence::random(rng, Alphabet::dna(), 50);
    EXPECT_EQ(mutate(rng, s, bio::MutationModel{}), s);
}

TEST(Mutate, PureDeletionShortens)
{
    util::Rng rng(3);
    Sequence s = Sequence::random(rng, Alphabet::dna(), 200);
    bio::MutationModel model;
    model.deletion = 0.5;
    Sequence m = mutate(rng, s, model);
    EXPECT_LT(m.size(), s.size());
}

TEST(Mutate, PureInsertionLengthens)
{
    util::Rng rng(4);
    Sequence s = Sequence::random(rng, Alphabet::dna(), 200);
    bio::MutationModel model;
    model.insertion = 0.5;
    Sequence m = mutate(rng, s, model);
    EXPECT_GT(m.size(), s.size());
}

TEST(Mutate, PureSubstitutionKeepsLengthChangesContent)
{
    util::Rng rng(5);
    Sequence s = Sequence::random(rng, Alphabet::dna(), 200);
    bio::MutationModel model;
    model.substitution = 1.0;
    Sequence m = mutate(rng, s, model);
    ASSERT_EQ(m.size(), s.size());
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_NE(m[i], s[i]) << "position " << i;
}

TEST(CompleteMismatch, SharesNoSymbolsWithOriginal)
{
    util::Rng rng(6);
    for (int trial = 0; trial < 10; ++trial) {
        // Restrict the original to {A, C} so a disjoint partner
        // exists.
        Sequence s(Alphabet::dna());
        for (int i = 0; i < 40; ++i)
            s.push_back(static_cast<bio::Symbol>(rng.index(2)));
        Sequence w = completeMismatch(rng, s);
        ASSERT_EQ(w.size(), s.size());
        for (size_t i = 0; i < w.size(); ++i)
            for (size_t j = 0; j < s.size(); ++j)
                ASSERT_NE(w[i], s[j]);
    }
}

TEST(CompleteMismatch, BinaryZeroesBecomeOnes)
{
    util::Rng rng(7);
    Sequence s(Alphabet::binary(), "000000");
    Sequence w = completeMismatch(rng, s);
    EXPECT_EQ(w.str(), "111111");
}

TEST(CompleteMismatchDeath, FullAlphabetRejected)
{
    util::Rng rng(7);
    Sequence s(Alphabet::dna(), "ACGT");
    EXPECT_EXIT(completeMismatch(rng, s), ::testing::ExitedWithCode(1),
                "worstCasePair");
}

TEST(WorstCasePair, NoSharedSymbols)
{
    util::Rng rng(8);
    for (int trial = 0; trial < 10; ++trial) {
        auto [a, b] = bio::worstCasePair(rng, Alphabet::dna(), 30);
        ASSERT_EQ(a.size(), 30u);
        ASSERT_EQ(b.size(), 30u);
        for (size_t i = 0; i < a.size(); ++i)
            for (size_t j = 0; j < b.size(); ++j)
                ASSERT_NE(a[i], b[j]);
    }
}

TEST(WorstCasePair, WorksOnProteinAlphabet)
{
    util::Rng rng(9);
    auto [a, b] = bio::worstCasePair(rng, Alphabet::protein(), 12);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(a[i], 10);
    for (size_t j = 0; j < b.size(); ++j)
        EXPECT_GE(b[j], 10);
}

// ---------------------------------------------------------- workloads

TEST(ScreeningWorkload, ShapeAndGroundTruth)
{
    util::Rng rng(8);
    auto wl = bio::makeScreeningWorkload(rng, Alphabet::dna(), 32, 200,
                                         0.25,
                                         bio::MutationModel::uniform(0.1));
    EXPECT_EQ(wl.query.size(), 32u);
    EXPECT_EQ(wl.database.size(), 200u);
    EXPECT_EQ(wl.related.size(), 200u);
    size_t related = 0;
    for (bool r : wl.related)
        related += r;
    EXPECT_GT(related, 20u);
    EXPECT_LT(related, 90u);
}

TEST(ScreeningWorkload, RelatedEntriesAreCloserThanUnrelated)
{
    util::Rng rng(9);
    auto wl = bio::makeScreeningWorkload(rng, Alphabet::dna(), 64, 100,
                                         0.5,
                                         bio::MutationModel::uniform(0.05));
    // Count exact-prefix agreement as a crude similarity proxy.
    double related_agree = 0, unrelated_agree = 0;
    size_t related_n = 0, unrelated_n = 0;
    for (size_t k = 0; k < wl.database.size(); ++k) {
        const Sequence &c = wl.database[k];
        size_t agree = 0;
        size_t upto = std::min(c.size(), wl.query.size());
        for (size_t i = 0; i < upto; ++i)
            agree += c[i] == wl.query[i];
        double frac = double(agree) / double(upto);
        if (wl.related[k]) {
            related_agree += frac;
            ++related_n;
        } else {
            unrelated_agree += frac;
            ++unrelated_n;
        }
    }
    ASSERT_GT(related_n, 10u);
    ASSERT_GT(unrelated_n, 10u);
    EXPECT_GT(related_agree / related_n,
              unrelated_agree / unrelated_n + 0.2);
}

} // namespace
