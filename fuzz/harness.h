/**
 * @file
 * Fuzz entry points shared by the libFuzzer targets (fuzz_*.cc) and
 * the corpus-replay test (tests/fuzz_corpus_test.cc).
 *
 * Each function consumes arbitrary bytes and must return normally:
 * every parser under test is *total* on its input domain, mapping
 * any byte string to either a validated value or a typed rl::Status.
 * The harness aborts only when a totality promise is broken -- a
 * crash, a sanitizer report, or an accepted input the library's own
 * validation then rejects (the anti-drift property).
 */

#ifndef RACELOGIC_FUZZ_HARNESS_H
#define RACELOGIC_FUZZ_HARNESS_H

#include <cstddef>
#include <cstdint>

namespace racelogic::fuzz {

/** Arbitrary bytes as a GFA document through pangraph::tryReadGfa(). */
int gfaInput(const uint8_t *data, size_t size);

/** Arbitrary bytes as FASTA through bio::tryReadFasta(). */
int fastaInput(const uint8_t *data, size_t size);

/**
 * Arbitrary bytes as one wire request payload through
 * serve::decodeRequest() against a preloaded pangenome, then -- for
 * every accepted decode -- the same problems the server would queue
 * are checked against api::validateProblem(), aborting if decode
 * accepted what validation rejects.  A Pairwise or Screen problem of
 * at most 4,096 cells is also raced through RaceEngine::trySolve() on
 * one engine shared by every input, and must be Ok and agree with
 * bio::globalScore (the score, or the screen's verdict).  Decoding it
 * through a serve::MatrixSlot, primed first by a fixed valid Pairwise
 * frame and then by the payload itself, must give the same verdict
 * and request as the plain decode.  The payload is also fed to
 * serve::decodeResponse() (total for any bytes); a reply it accepts
 * must re-encode to bytes that decode and re-encode to themselves.
 */
int wireInput(const uint8_t *data, size_t size);

/**
 * Arbitrary bytes as one edit-grid race -- an alphabet of 1-64
 * letters, a Cost matrix with weights in 1..serve::kMaxWireWeight,
 * some forbidden pairs and finite gaps, two sequences of at most about
 * 2^16 cells and a horizon drawn around 2^14 -- raced through
 * core::raceEditGrid and its reference row sweep.  Aborts if the two
 * differ on any RaceGridResult or KernelCounters field: on a host with
 * the skewed band, this holds the band's exactness check (it keeps or
 * gives back each race) to the row sweep.
 */
int raceInput(const uint8_t *data, size_t size);

/**
 * Arbitrary bytes as one inhibited graph race: a DNA variation graph
 * of up to 12 segments of 1-6 nt linked forward in a shuffled order
 * (several sources, sinks and joins), a Cost matrix with weights in
 * 1..16 and some forbidden pairs, a read of up to 48 nt and an inhibit
 * horizon H drawn around the read's bound LB(source) and its distance.
 * Raced through its row sweep, core::raceDag on the materialized
 * product with inhibit times H - LB(i, p), and pangraph::
 * raceAlignmentGrid (the band where the host has it, arrivals on or
 * off); aborts if the row sweep and raceDag differ on the verdict,
 * latency, events, states fired or arrivals, or raceAlignmentGrid and
 * the row sweep on any result or KernelCounters field.
 */
int graphRaceInput(const uint8_t *data, size_t size);

} // namespace racelogic::fuzz

#endif // RACELOGIC_FUZZ_HARNESS_H
