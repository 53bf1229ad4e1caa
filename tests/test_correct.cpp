// Tests for CIGAR/traceback alignment and overlap-based error correction.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <string>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "core/bsp.hpp"
#include "correct/consensus.hpp"
#include "kmer/bella_filter.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/world.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wl/genome.hpp"
#include "wl/presets.hpp"

using namespace gnb;
using namespace gnb::align;

namespace {

using Codes = std::vector<std::uint8_t>;

Codes random_codes(std::size_t length, Xoshiro256& rng) {
  Codes c(length);
  for (auto& x : c) x = static_cast<std::uint8_t>(rng.below(4));
  return c;
}

Codes mutate(const Codes& src, double rate, Xoshiro256& rng) {
  Codes out;
  for (const auto base : src) {
    const double roll = rng.uniform();
    if (roll < rate / 3) continue;
    if (roll < 2 * rate / 3) out.push_back(static_cast<std::uint8_t>(rng.below(4)));
    if (roll < rate) {
      out.push_back(static_cast<std::uint8_t>((base + 1 + rng.below(3)) & 3));
    } else {
      out.push_back(base);
    }
  }
  return out;
}

}  // namespace

// ---------- CIGAR basics ----------

TEST(Cigar, StringAndSpans) {
  const Cigar cigar{{CigarOp::kMatch, 12}, {CigarOp::kMismatch, 1}, {CigarOp::kDeletion, 3},
                    {CigarOp::kMatch, 9},  {CigarOp::kInsertion, 2}};
  EXPECT_EQ(cigar_string(cigar), "12=1X3D9=2I");
  EXPECT_EQ(cigar_query_span(cigar), 12u + 1 + 9 + 2);
  EXPECT_EQ(cigar_target_span(cigar), 12u + 1 + 3 + 9);
  EXPECT_NEAR(cigar_identity(cigar), 21.0 / 27.0, 1e-12);
}

TEST(Cigar, ConsistencyChecker) {
  const Codes a{0, 1, 2, 3};
  const Codes b{0, 1, 1, 3};
  const Cigar good{{CigarOp::kMatch, 2}, {CigarOp::kMismatch, 1}, {CigarOp::kMatch, 1}};
  EXPECT_TRUE(cigar_consistent(good, a, b));
  const Cigar wrong_label{{CigarOp::kMatch, 4}};
  EXPECT_FALSE(cigar_consistent(wrong_label, a, b));
  const Cigar wrong_span{{CigarOp::kMatch, 2}};
  EXPECT_FALSE(cigar_consistent(wrong_span, a, b));
}

// ---------- banded traceback ----------

TEST(Traceback, IdenticalSequencesAllMatch) {
  Xoshiro256 rng(1);
  const Codes a = random_codes(200, rng);
  const TracebackResult r = banded_global_traceback(a, a, 8);
  EXPECT_EQ(r.score, 200);
  ASSERT_EQ(r.cigar.size(), 1u);
  EXPECT_EQ(r.cigar[0].op, CigarOp::kMatch);
  EXPECT_EQ(r.cigar[0].length, 200u);
}

TEST(Traceback, SingleSubstitution) {
  Codes a{0, 1, 2, 3, 0, 1, 2, 3};
  Codes b = a;
  b[3] = 0;
  const TracebackResult r = banded_global_traceback(a, b, 4);
  EXPECT_EQ(r.score, 7 - 1);
  EXPECT_EQ(cigar_string(r.cigar), "3=1X4=");
}

TEST(Traceback, SingleDeletionInB) {
  Codes a{0, 1, 2, 3, 0, 1, 2, 3};
  Codes b = a;
  b.erase(b.begin() + 4);
  const TracebackResult r = banded_global_traceback(a, b, 4);
  EXPECT_EQ(r.score, 7 - 1);
  EXPECT_TRUE(cigar_consistent(r.cigar, a, b));
  // Exactly one 1-base insertion (a has the extra base).
  std::size_t insertions = 0;
  for (const auto& run : r.cigar)
    if (run.op == CigarOp::kInsertion) insertions += run.length;
  EXPECT_EQ(insertions, 1u);
}

TEST(Traceback, ScoreMatchesScoreOnlyBandedAligner) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    const Codes ancestor = random_codes(150, rng);
    const Codes a = mutate(ancestor, 0.08, rng);
    const Codes b = mutate(ancestor, 0.08, rng);
    const std::size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
    const std::size_t band = diff + 30;
    const TracebackResult tb = banded_global_traceback(a, b, band);
    EXPECT_EQ(tb.score, banded_global(a, b, band).score);
    EXPECT_TRUE(cigar_consistent(tb.cigar, a, b));
    // The transcript's score re-derives the DP score.
    std::int32_t rescored = 0;
    for (const auto& run : tb.cigar) {
      switch (run.op) {
        case CigarOp::kMatch: rescored += static_cast<std::int32_t>(run.length); break;
        case CigarOp::kMismatch: rescored -= static_cast<std::int32_t>(run.length); break;
        default: rescored -= static_cast<std::int32_t>(run.length); break;
      }
    }
    EXPECT_EQ(rescored, tb.score);
  }
}

TEST(Traceback, BandTooNarrowThrows) {
  const Codes a(30, 0);
  const Codes b(10, 0);
  EXPECT_THROW(banded_global_traceback(a, b, 5), Error);
}

TEST(Traceback, EmptyInputs) {
  const Codes a;
  const Codes b{0, 1};
  const TracebackResult r = banded_global_traceback(a, b, 4);
  EXPECT_EQ(r.score, -2);
  EXPECT_EQ(cigar_string(r.cigar), "2D");
  const TracebackResult rr = banded_global_traceback(b, a, 4);
  EXPECT_EQ(cigar_string(rr.cigar), "2I");
}

// ---------- banded traceback: parity with the reference kernel ----------

namespace {

// ThreadSanitizer slows the reference kernel by well over an order of
// magnitude; run fewer fuzz pairs there.
#if defined(__SANITIZE_THREAD__)
#define GNB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GNB_TSAN_BUILD 1
#endif
#endif

// The reference: the straightforward banded traceback, with a full-row
// reset, per-cell validity tests and one byte per direction. The library
// kernel must reproduce its score, CIGAR and cell count exactly.
TracebackResult reference_traceback(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b, std::size_t band,
                                    const Scoring& scoring) {
  constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;
  enum Dir : std::uint8_t { kDiag = 0, kUp = 1, kLeft = 2, kNone = 3 };
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  const std::size_t width = 2 * band + 1;

  TracebackResult result;
  std::vector<std::uint8_t> dir((na + 1) * width, kNone);
  const auto dir_at = [&](std::size_t i, std::size_t j) -> std::uint8_t& {
    return dir[i * width + (j + band - i)];
  };

  std::vector<std::int32_t> prev(nb + 1, kNegInf), curr(nb + 1, kNegInf);
  for (std::size_t j = 0; j <= std::min(band, nb); ++j) {
    prev[j] = static_cast<std::int32_t>(j) * scoring.gap;
    dir_at(0, j) = j == 0 ? kNone : kLeft;
  }

  for (std::size_t i = 1; i <= na; ++i) {
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(nb, i + band);
    std::fill(curr.begin(), curr.end(), kNegInf);
    for (std::size_t j = lo; j <= hi; ++j) {
      if (j == 0) {
        curr[0] = static_cast<std::int32_t>(i) * scoring.gap;
        dir_at(i, 0) = kUp;
        ++result.cells;
        continue;
      }
      std::int32_t best = kNegInf;
      std::uint8_t direction = kNone;
      if (prev[j - 1] > kNegInf) {
        best = prev[j - 1] + scoring.substitution(a[i - 1], b[j - 1]);
        direction = kDiag;
      }
      if (j <= i + band - 1 && prev[j] > kNegInf) {
        if (const std::int32_t up = prev[j] + scoring.gap; up > best) {
          best = up;
          direction = kUp;
        }
      }
      if (curr[j - 1] > kNegInf) {
        if (const std::int32_t left = curr[j - 1] + scoring.gap; left > best) {
          best = left;
          direction = kLeft;
        }
      }
      curr[j] = best;
      dir_at(i, j) = direction;
      ++result.cells;
    }
    std::swap(prev, curr);
  }
  result.score = prev[nb];

  Cigar reversed;
  auto push = [&](CigarOp op) {
    if (!reversed.empty() && reversed.back().op == op) {
      ++reversed.back().length;
    } else {
      reversed.push_back(CigarRun{op, 1});
    }
  };
  std::size_t i = na, j = nb;
  while (i != 0 || j != 0) {
    const std::uint8_t direction = dir_at(i, j);
    EXPECT_NE(direction, kNone) << "reference traceback escaped the band";
    if (direction == kNone) break;
    switch (direction) {
      case kDiag: {
        const bool equal = a[i - 1] == b[j - 1] && a[i - 1] != seq::kN && b[j - 1] != seq::kN;
        push(equal ? CigarOp::kMatch : CigarOp::kMismatch);
        --i;
        --j;
        break;
      }
      case kUp:
        push(CigarOp::kInsertion);
        --i;
        break;
      default:
        push(CigarOp::kDeletion);
        --j;
        break;
    }
  }
  result.cigar.assign(reversed.rbegin(), reversed.rend());
  return result;
}

Codes sprinkle_n(Codes codes, double rate, Xoshiro256& rng) {
  for (auto& base : codes)
    if (rng.uniform() < rate) base = seq::kN;
  return codes;
}

/// Runs both kernels on one pair and compares everything they report.
void expect_kernel_parity(const Codes& a, const Codes& b, std::size_t band,
                          const Scoring& scoring, TracebackScratch& scratch) {
  const TracebackResult want = reference_traceback(a, b, band, scoring);
  const TracebackResult got = banded_global_traceback(a, b, band, scoring, scratch);
  SCOPED_TRACE("|a|=" + std::to_string(a.size()) + " |b|=" + std::to_string(b.size()) +
               " band=" + std::to_string(band));
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(cigar_string(got.cigar), cigar_string(want.cigar));
  EXPECT_EQ(got.cells, want.cells);
  EXPECT_TRUE(cigar_consistent(got.cigar, a, b));
}

}  // namespace

TEST(TracebackParity, FuzzedPairsMatchReferenceKernel) {
  Xoshiro256 rng(2024);
  const std::array<Scoring, 3> scorings{kDefaultScoring, Scoring{2, -3, -2},
                                        Scoring{1, -4, -1}};
#ifdef GNB_TSAN_BUILD
  constexpr int kTrials = 24;
#else
  constexpr int kTrials = 150;
#endif
  // One scratch for every call: buffers left by a longer or wider pair
  // must never leak into a shorter one.
  TracebackScratch scratch;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Either side may be empty; otherwise b is a mutated copy of a (a real
    // overlap) or an unrelated sequence of any length up to 2000.
    const std::size_t roll = rng.below(10);
    Codes a = roll == 0 ? Codes{} : random_codes(rng.below(2001), rng);
    Codes b;
    if (roll == 1) {
      b = {};
    } else if (roll < 6) {
      b = mutate(a, 0.02 + 0.2 * rng.uniform(), rng);
      if (b.size() > 2000) b.resize(2000);
    } else {
      b = random_codes(rng.below(2001), rng);
    }
    a = sprinkle_n(std::move(a), 0.03, rng);
    b = sprinkle_n(std::move(b), 0.03, rng);

    const std::size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
    const std::size_t full = a.size() + b.size();
    std::size_t band = 0;
    switch (rng.below(5)) {
      case 0: band = diff; break;                            // tightest legal band
      case 1: band = diff + 1 + rng.below(8); break;         // barely wider
      case 2: band = diff + rng.below(400); break;           // correction-like
      case 3: band = full + rng.below(3); break;             // covers the whole matrix
      default: band = diff + rng.below(full - diff + 1); break;
    }
    expect_kernel_parity(a, b, band, scorings[rng.below(scorings.size())], scratch);
  }
}

TEST(TracebackParity, EdgeShapesMatchReferenceKernel) {
  Xoshiro256 rng(7);
  TracebackScratch scratch;
  const Scoring scoring{2, -3, -2};
  const Codes empty;
  const Codes one = sprinkle_n(random_codes(1, rng), 0.5, rng);
  const Codes some = sprinkle_n(random_codes(37, rng), 0.1, rng);
  const Codes other = sprinkle_n(random_codes(41, rng), 0.1, rng);
  for (const Codes* a : {&empty, &one, &some, &other})
    for (const Codes* b : {&empty, &one, &some, &other}) {
      const std::size_t diff =
          a->size() > b->size() ? a->size() - b->size() : b->size() - a->size();
      for (const std::size_t band : {diff, diff + 1, diff + 5, a->size() + b->size(),
                                     a->size() + b->size() + 9}) {
        expect_kernel_parity(*a, *b, band, scoring, scratch);
        expect_kernel_parity(*a, *b, band, kDefaultScoring, scratch);
      }
    }
}

// ---------- correct_read unit cases ----------

namespace {

correct::Evidence full_evidence(const seq::Sequence& partner, std::uint32_t read_len) {
  correct::Evidence ev;
  ev.partner = &partner;
  ev.read_begin = 0;
  ev.read_end = read_len;
  ev.partner_begin = 0;
  ev.partner_end = static_cast<std::uint32_t>(partner.size());
  return ev;
}

}  // namespace

TEST(CorrectRead, FixesSingleSubstitution) {
  Xoshiro256 rng(11);
  const Codes truth = random_codes(120, rng);
  Codes noisy = truth;
  noisy[60] = static_cast<std::uint8_t>((noisy[60] + 1) & 3);
  const seq::Sequence read = seq::Sequence::from_codes(noisy);
  const seq::Sequence partner = seq::Sequence::from_codes(truth);

  std::vector<correct::Evidence> evidence(4, full_evidence(partner, 120));
  correct::CorrectionParams params;
  params.min_coverage = 3;
  const seq::Sequence fixed = correct::correct_read(read, evidence, params);
  EXPECT_EQ(fixed, seq::Sequence::from_codes(truth));
}

TEST(CorrectRead, RemovesInsertedBase) {
  Xoshiro256 rng(12);
  const Codes truth = random_codes(100, rng);
  Codes noisy = truth;
  noisy.insert(noisy.begin() + 40, static_cast<std::uint8_t>(rng.below(4)));
  const seq::Sequence read = seq::Sequence::from_codes(noisy);
  const seq::Sequence partner = seq::Sequence::from_codes(truth);
  std::vector<correct::Evidence> evidence(
      4, full_evidence(partner, static_cast<std::uint32_t>(noisy.size())));
  const seq::Sequence fixed = correct::correct_read(read, evidence, {});
  EXPECT_EQ(fixed, seq::Sequence::from_codes(truth));
}

TEST(CorrectRead, RestoresDeletedBase) {
  Xoshiro256 rng(13);
  const Codes truth = random_codes(100, rng);
  Codes noisy = truth;
  noisy.erase(noisy.begin() + 55);
  const seq::Sequence read = seq::Sequence::from_codes(noisy);
  const seq::Sequence partner = seq::Sequence::from_codes(truth);
  std::vector<correct::Evidence> evidence(
      4, full_evidence(partner, static_cast<std::uint32_t>(noisy.size())));
  const seq::Sequence fixed = correct::correct_read(read, evidence, {});
  EXPECT_EQ(fixed, seq::Sequence::from_codes(truth));
}

TEST(CorrectRead, LowCoverageLeavesReadAlone) {
  Xoshiro256 rng(14);
  const Codes truth = random_codes(80, rng);
  Codes noisy = truth;
  noisy[10] = static_cast<std::uint8_t>((noisy[10] + 2) & 3);
  const seq::Sequence read = seq::Sequence::from_codes(noisy);
  const seq::Sequence partner = seq::Sequence::from_codes(truth);
  // Only 1 partner < min_coverage 3: no change.
  std::vector<correct::Evidence> evidence(1, full_evidence(partner, 80));
  const seq::Sequence fixed = correct::correct_read(read, evidence, {});
  EXPECT_EQ(fixed, read);
}

TEST(CorrectRead, DisagreeingPartnersDoNotOverride) {
  Xoshiro256 rng(15);
  const Codes truth = random_codes(60, rng);
  const seq::Sequence read = seq::Sequence::from_codes(truth);
  // Four partners each mutated differently: no majority against the read.
  std::vector<seq::Sequence> partners;
  for (int i = 0; i < 4; ++i)
    partners.push_back(seq::Sequence::from_codes(mutate(truth, 0.25, rng)));
  std::vector<correct::Evidence> evidence;
  for (const auto& partner : partners) {
    correct::Evidence ev = full_evidence(partner, 60);
    evidence.push_back(ev);
  }
  correct::CorrectionParams params;
  params.majority = 0.75;
  const seq::Sequence fixed = correct::correct_read(read, evidence, params);
  // The read should survive mostly unchanged.
  const auto before = read.unpack();
  const auto after = fixed.unpack();
  std::size_t same = 0;
  for (std::size_t i = 0; i < std::min(before.size(), after.size()); ++i)
    same += before[i] == after[i] ? 1 : 0;
  EXPECT_GT(same, before.size() * 8 / 10);
}

// ---------- end-to-end correction quality ----------

namespace {

/// Noisy reads from a 12 kbp genome on both strands, overlapped by the BSP
/// engine on two ranks. Built once and shared by the correct_reads tests.
struct OverlapFixture {
  wl::SampledDataset dataset;
  seq::Sequence genome;
  std::vector<align::AlignmentRecord> records;
};

const OverlapFixture& overlap_fixture() {
  static const OverlapFixture fixture = [] {
    OverlapFixture f;
    wl::DatasetSpec spec = wl::tiny_spec();
    spec.genome.length = 12'000;
    spec.reads.coverage = 12;
    spec.reads.error_rate = 0.06;
    spec.reads.n_rate = 0;
    f.dataset = wl::synthesize(spec, 41);

    // Need the genome again for ground truth: regenerate deterministically.
    Xoshiro256 rng(41);
    f.genome = wl::generate_genome(spec.genome, rng);

    const auto band = kmer::reliable_bounds(
        kmer::BellaParams{spec.reads.coverage, spec.reads.error_rate, spec.k, 1e-3});
    pipeline::PipelineConfig config;
    config.k = spec.k;
    config.lo = band.lo;
    config.hi = band.hi;
    const pipeline::TaskSet tasks = pipeline::run_serial(f.dataset.reads, config, 2);
    core::EngineConfig engine;
    engine.filter = align::AlignmentFilter{80, 150};
    rt::World world(2);
    std::vector<std::vector<align::AlignmentRecord>> per_rank(2);
    world.run([&](rt::Rank& rank) {
      per_rank[rank.id()] = core::bsp_align(rank, f.dataset.reads, tasks.bounds,
                                            tasks.per_rank[rank.id()], engine)
                                .accepted;
    });
    for (auto& part : per_rank) f.records.insert(f.records.end(), part.begin(), part.end());
    return f;
  }();
  return fixture;
}

}  // namespace

TEST(CorrectReads, ImprovesIdentityAgainstGroundTruth) {
  // Sample noisy reads from a genome, overlap them, correct them, and
  // verify reads moved closer to their true fragments.
  const OverlapFixture& fixture = overlap_fixture();
  const wl::SampledDataset& dataset = fixture.dataset;
  const seq::Sequence& genome = fixture.genome;
  const correct::CorrectedSet corrected =
      correct::correct_reads(dataset.reads, fixture.records);
  ASSERT_EQ(corrected.reads.size(), dataset.reads.size());
  EXPECT_GT(corrected.stats.reads_changed, 0u);

  auto identity_to_truth = [&](const seq::Sequence& read, const wl::ReadOrigin& origin) {
    seq::Sequence fragment =
        genome.subseq(origin.genome_begin, origin.genome_end - origin.genome_begin);
    if (origin.reverse_strand) fragment = fragment.reverse_complement();
    const auto a = read.unpack();
    const auto b = fragment.unpack();
    const std::size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
    const TracebackResult tb = banded_global_traceback(a, b, diff + 80);
    return cigar_identity(tb.cigar);
  };

  double before = 0, after = 0;
  std::size_t measured = 0;
  for (seq::ReadId id = 0; id < dataset.reads.size() && measured < 40; ++id) {
    before += identity_to_truth(dataset.reads.get(id).sequence, dataset.origins[id]);
    after += identity_to_truth(corrected.reads[id], dataset.origins[id]);
    ++measured;
  }
  before /= static_cast<double>(measured);
  after /= static_cast<double>(measured);
  EXPECT_GT(after, before + 0.01) << "correction did not improve identity: " << before
                                  << " -> " << after;
  EXPECT_GT(after, 0.97);
}

TEST(CorrectReads, ParallelRunEqualsSerialCorrectRead) {
  const OverlapFixture& fixture = overlap_fixture();
  const seq::ReadStore& store = fixture.dataset.reads;
  // Both orientations must be exercised: reverse-strand records flip the
  // read range and reverse-complement the partner.
  std::size_t reversed = 0;
  for (const auto& record : fixture.records) reversed += record.alignment.b_reversed ? 1 : 0;
  ASSERT_GT(reversed, 0u);
  ASSERT_LT(reversed, fixture.records.size());

  correct::CorrectionParams tight;
  tight.band_frac = 0.1;
  tight.min_coverage = 2;
  tight.majority = 0.5;
#ifdef GNB_TSAN_BUILD
  // The narrow band alone: the same worker hand-off at a fraction of the cells.
  for (const correct::CorrectionParams& params : {tight}) {
#else
  for (const correct::CorrectionParams& params : {correct::CorrectionParams{}, tight}) {
#endif
    const correct::CorrectedSet parallel =
        correct::correct_reads(store, fixture.records, params);

    const correct::EvidenceSet evidence = correct::gather_evidence(store, fixture.records);
    correct::CorrectionStats serial_stats;
    std::vector<seq::Sequence> serial;
    for (const seq::Read& read : store.reads())
      serial.push_back(correct::correct_read(read.sequence, evidence.per_read[read.id], params,
                                             &serial_stats));

    ASSERT_EQ(parallel.reads.size(), serial.size());
    for (std::size_t id = 0; id < serial.size(); ++id)
      EXPECT_EQ(parallel.reads[id], serial[id]) << "read " << id;
    const correct::CorrectionStats& got = parallel.stats;
    EXPECT_EQ(got.reads_processed, serial_stats.reads_processed);
    EXPECT_EQ(got.reads_changed, serial_stats.reads_changed);
    EXPECT_EQ(got.substitutions, serial_stats.substitutions);
    EXPECT_EQ(got.deletions, serial_stats.deletions);
    EXPECT_EQ(got.insertions, serial_stats.insertions);
    EXPECT_EQ(got.positions_covered, serial_stats.positions_covered);
    EXPECT_EQ(got.positions_total, serial_stats.positions_total);
    EXPECT_GT(got.reads_changed, 0u);
  }
}

TEST(CorrectReads, RecordPastItsReadThrowsInsteadOfAborting) {
  const OverlapFixture& fixture = overlap_fixture();
  const seq::ReadStore& store = fixture.dataset.reads;
  // One record per orientation, each pushed past the end of a read; the
  // bad record sits in the middle so other workers are busy when it fails.
  for (const bool b_reversed : {false, true}) {
    std::vector<align::AlignmentRecord> records = fixture.records;
    const auto bad = std::find_if(
        records.begin() + static_cast<std::ptrdiff_t>(records.size() / 2), records.end(),
        [&](const align::AlignmentRecord& r) { return r.alignment.b_reversed == b_reversed; });
    ASSERT_NE(bad, records.end());
    bad->alignment.b_end =
        static_cast<std::uint32_t>(store.get(bad->read_b).length()) + 7;
    EXPECT_THROW(correct::correct_reads(store, records), Error) << "b_reversed " << b_reversed;
  }
}
