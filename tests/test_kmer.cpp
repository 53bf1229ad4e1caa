// Unit and property tests for gnb_kmer: packed k-mers, extraction,
// counting, the BELLA reliable-band filter and candidate generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "kmer/bella_filter.hpp"
#include "kmer/candidates.hpp"
#include "kmer/counter.hpp"
#include "kmer/extract.hpp"
#include "kmer/kmer.hpp"
#include "kmer/minimizer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace gnb;
using namespace gnb::kmer;

namespace {

seq::Read make_read(seq::ReadId id, const std::string& bases) {
  return seq::Read{id, std::string("r").append(std::to_string(id)),
                   seq::Sequence::from_string(bases)};
}

Kmer kmer_of(const std::string& bases) {
  Kmer km(0, static_cast<std::uint32_t>(bases.size()));
  for (char ch : bases) km = km.rolled(seq::dna_encode(ch));
  return km;
}

std::string random_dna(std::size_t length, Xoshiro256& rng) {
  std::string s(length, 'A');
  for (auto& ch : s) ch = seq::dna_decode(static_cast<std::uint8_t>(rng.below(4)));
  return s;
}

}  // namespace

// ---------- Kmer ----------

TEST(Kmer, ToStringRoundTrip) {
  EXPECT_EQ(kmer_of("ACGTT").to_string(), "ACGTT");
  EXPECT_EQ(kmer_of("GGGG").to_string(), "GGGG");
}

TEST(Kmer, RolledSlidesWindow) {
  Kmer km = kmer_of("ACG");
  km = km.rolled(seq::dna_encode('T'));
  EXPECT_EQ(km.to_string(), "CGT");
}

TEST(Kmer, ReverseComplementKnown) {
  EXPECT_EQ(kmer_of("ACGT").reverse_complement().to_string(), "ACGT");  // palindrome
  EXPECT_EQ(kmer_of("AAACC").reverse_complement().to_string(), "GGTTT");
}

class KmerProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KmerProperty, ReverseComplementIsInvolution) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const Kmer km(rng() & ((GetParam() == 32) ? ~0ULL : ((1ULL << (2 * GetParam())) - 1)),
                  GetParam());
    EXPECT_EQ(km.reverse_complement().reverse_complement(), km);
  }
}

TEST_P(KmerProperty, CanonicalIsMinOfStrands) {
  Xoshiro256 rng(GetParam() + 100);
  for (int trial = 0; trial < 50; ++trial) {
    const Kmer km(rng() & ((GetParam() == 32) ? ~0ULL : ((1ULL << (2 * GetParam())) - 1)),
                  GetParam());
    bool reversed = false;
    const Kmer canon = km.canonical(&reversed);
    EXPECT_LE(canon.bits(), km.bits());
    EXPECT_LE(canon.bits(), km.reverse_complement().bits());
    EXPECT_EQ(canon, reversed ? km.reverse_complement() : km);
    // Canonical of the reverse complement is the same k-mer.
    EXPECT_EQ(km.reverse_complement().canonical(), canon);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KmerProperty, ::testing::Values(1u, 2u, 15u, 16u, 17u, 31u, 32u));

TEST(Kmer, InvalidKAborts) { EXPECT_DEATH(Kmer(0, 33), ""); }

// ---------- extraction ----------

TEST(Extract, CountsWindows) {
  const auto read = make_read(0, "ACGTACGTAC");  // 10 bases, k=4 -> 7 windows
  EXPECT_EQ(extract_kmers(read, 4).size(), 7u);
}

TEST(Extract, SkipsWindowsContainingN) {
  const auto read = make_read(0, "ACGTNACGT");  // N kills windows covering position 4
  const auto kmers = extract_kmers(read, 4);
  // Valid windows: positions 0 ("ACGT") and 5 ("ACGT") only.
  EXPECT_EQ(kmers.size(), 2u);
}

TEST(Extract, ShortReadYieldsNothing) {
  const auto read = make_read(0, "ACG");
  EXPECT_TRUE(extract_kmers(read, 4).empty());
}

TEST(Extract, EmitsCanonicalForm) {
  // "AAACC" forward; reverse complement read must emit identical k-mers.
  const auto fwd = make_read(0, "AAACCGGT");
  const auto rc_read =
      make_read(1, seq::Sequence::from_string("AAACCGGT").reverse_complement().to_string());
  auto k1 = extract_kmers(fwd, 5);
  auto k2 = extract_kmers(rc_read, 5);
  auto key = [](const Kmer& km) { return km.bits(); };
  std::multiset<std::uint64_t> s1, s2;
  for (const auto& km : k1) s1.insert(key(km));
  for (const auto& km : k2) s2.insert(key(km));
  EXPECT_EQ(s1, s2);
}

TEST(Extract, OccurrencePositionsAreWindowStarts) {
  const auto read = make_read(3, "ACGTAC");
  std::vector<std::uint32_t> positions;
  for_each_kmer(read, 3, [&](const Kmer&, const Occurrence& occ) {
    EXPECT_EQ(occ.read, 3u);
    positions.push_back(occ.pos);
  });
  EXPECT_EQ(positions, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

// ---------- counting ----------

TEST(Counter, CountsAcrossReads) {
  KmerCounter counter;
  counter.count_reads({make_read(0, "AAAAA"), make_read(1, "AAAAA")}, 5);
  // "AAAAA" canonical appears once per read.
  EXPECT_EQ(counter.distinct(), 1u);
  EXPECT_EQ(counter.total(), 2u);
  EXPECT_EQ(counter.count(kmer_of("AAAAA").canonical()), 2u);
}

TEST(Counter, MergeEqualsCombinedCount) {
  Xoshiro256 rng(7);
  const auto r0 = make_read(0, random_dna(300, rng));
  const auto r1 = make_read(1, random_dna(300, rng));
  KmerCounter separate_a, separate_b, combined;
  separate_a.count_reads({r0}, 11);
  separate_b.count_reads({r1}, 11);
  combined.count_reads({r0, r1}, 11);
  separate_a.merge(separate_b);
  EXPECT_EQ(separate_a.distinct(), combined.distinct());
  EXPECT_EQ(separate_a.total(), combined.total());
}

TEST(Counter, HistogramAccountsForAllDistinctKmers) {
  Xoshiro256 rng(8);
  KmerCounter counter;
  counter.count_reads({make_read(0, random_dna(500, rng))}, 9);
  const CountHistogram hist = counter.histogram();
  EXPECT_EQ(hist.total(), counter.distinct());
}

TEST(Counter, RetainedRespectsBand) {
  KmerCounter counter;
  counter.add(kmer_of("AAAAA"), 1);
  counter.add(kmer_of("ACGTA"), 3);
  counter.add(kmer_of("GGGGG"), 10);
  const auto keep = counter.retained(2, 8);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], kmer_of("ACGTA"));
}

// ---------- BELLA filter ----------

TEST(Bella, BinomialPmfSumsToOne) {
  for (const double p : {0.1, 0.5, 0.9}) {
    double sum = 0;
    for (std::uint64_t m = 0; m <= 30; ++m) sum += binomial_pmf(30, p, m);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Bella, PmfEdgeCases) {
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 1.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 0.5, 11), 0.0);
}

TEST(Bella, UpperTailMonotoneDecreasing) {
  double prev = 1.0;
  for (std::uint64_t m = 0; m <= 20; ++m) {
    const double tail = binomial_upper_tail(20, 0.3, m);
    EXPECT_LE(tail, prev + 1e-12);
    prev = tail;
  }
}

TEST(Bella, BoundsScaleWithCoverage) {
  const auto low = reliable_bounds(BellaParams{20, 0.15, 17, 1e-3});
  const auto high = reliable_bounds(BellaParams{100, 0.15, 17, 1e-3});
  EXPECT_EQ(low.lo, 2u);
  EXPECT_EQ(high.lo, 2u);
  EXPECT_GT(high.hi, low.hi);  // deeper coverage keeps higher multiplicities
}

TEST(Bella, HigherErrorLowersUpperBound) {
  const auto clean = reliable_bounds(BellaParams{30, 0.05, 17, 1e-3});
  const auto noisy = reliable_bounds(BellaParams{30, 0.30, 17, 1e-3});
  EXPECT_GE(clean.hi, noisy.hi);
  EXPECT_GT(clean.p_correct, noisy.p_correct);
}

TEST(Bella, BoundsAreOrdered) {
  for (double cov : {10.0, 30.0, 100.0})
    for (double err : {0.02, 0.15, 0.30}) {
      const auto b = reliable_bounds(BellaParams{cov, err, 17, 1e-3});
      EXPECT_LE(b.lo, b.hi);
      EXPECT_GE(b.lo, 2u);
    }
}

// ---------- candidates ----------

TEST(Candidates, OverlappingReadsProduceOneTask) {
  // Two reads sharing a 30-base block; all shared k-mers must collapse to
  // one task per pair.
  Xoshiro256 rng(9);
  const std::string shared = random_dna(30, rng);
  const std::string a = random_dna(20, rng) + shared;
  const std::string b = shared + random_dna(25, rng);
  seq::ReadStore store;
  store.add("a", seq::Sequence::from_string(a));
  store.add("b", seq::Sequence::from_string(b));
  const auto tasks = discover_tasks(store, 15, 1, 100);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].a, 0u);
  EXPECT_EQ(tasks[0].b, 1u);
  EXPECT_EQ(tasks[0].seed.length, 15u);
}

TEST(Candidates, SeedActuallyMatchesForwardCase) {
  Xoshiro256 rng(10);
  const std::string shared = random_dna(40, rng);
  const std::string a = random_dna(33, rng) + shared + random_dna(10, rng);
  const std::string b = random_dna(7, rng) + shared;
  seq::ReadStore store;
  store.add("a", seq::Sequence::from_string(a));
  store.add("b", seq::Sequence::from_string(b));
  const auto tasks = discover_tasks(store, 13, 1, 100);
  ASSERT_FALSE(tasks.empty());
  for (const auto& task : tasks) {
    const auto ca = store.get(task.a).sequence.unpack();
    auto cb = store.get(task.b).sequence.unpack();
    if (task.seed.b_reversed) {
      std::reverse(cb.begin(), cb.end());
      for (auto& code : cb) code = seq::dna_complement(code);
    }
    for (std::uint16_t i = 0; i < task.seed.length; ++i)
      EXPECT_EQ(ca[task.seed.a_pos + i], cb[task.seed.b_pos + i])
          << "seed mismatch at offset " << i;
  }
}

TEST(Candidates, SeedMatchesReverseComplementCase) {
  Xoshiro256 rng(11);
  const std::string shared = random_dna(40, rng);
  const std::string a = random_dna(12, rng) + shared + random_dna(9, rng);
  // b carries the reverse complement of the shared block.
  const std::string rc =
      seq::Sequence::from_string(shared).reverse_complement().to_string();
  const std::string b = random_dna(21, rng) + rc + random_dna(5, rng);
  seq::ReadStore store;
  store.add("a", seq::Sequence::from_string(a));
  store.add("b", seq::Sequence::from_string(b));
  const auto tasks = discover_tasks(store, 13, 1, 100);
  ASSERT_FALSE(tasks.empty());
  bool found_reversed = false;
  for (const auto& task : tasks) {
    if (!task.seed.b_reversed) continue;
    found_reversed = true;
    const auto ca = store.get(task.a).sequence.unpack();
    auto cb = store.get(task.b).sequence.unpack();
    std::reverse(cb.begin(), cb.end());
    for (auto& code : cb) code = seq::dna_complement(code);
    for (std::uint16_t i = 0; i < task.seed.length; ++i)
      EXPECT_EQ(ca[task.seed.a_pos + i], cb[task.seed.b_pos + i]);
  }
  EXPECT_TRUE(found_reversed);
}

TEST(Candidates, TaskInvariantALessThanB) {
  Xoshiro256 rng(12);
  seq::ReadStore store;
  const std::string shared = random_dna(60, rng);
  for (int i = 0; i < 6; ++i)
    store.add("r", seq::Sequence::from_string(random_dna(10 + 3 * i, rng) + shared));
  for (const auto& task : discover_tasks(store, 15, 1, 100)) EXPECT_LT(task.a, task.b);
}

TEST(Candidates, SelfPairsExcluded) {
  // A read with an internal repeat shares k-mers with itself; no self task.
  Xoshiro256 rng(13);
  const std::string repeat = random_dna(30, rng);
  seq::ReadStore store;
  store.add("r", seq::Sequence::from_string(repeat + random_dna(15, rng) + repeat));
  EXPECT_TRUE(discover_tasks(store, 13, 1, 100).empty());
}

TEST(Candidates, FrequencyFilterRemovesRepeatKmers) {
  Xoshiro256 rng(14);
  const std::string repeat = random_dna(25, rng);
  seq::ReadStore store;
  // 12 reads all containing the same repeat: its k-mers have multiplicity
  // 12 > hi 8 and must be filtered out. Without the filter every one of
  // the C(12,2) = 66 pairs becomes a candidate; with it, only incidental
  // junction k-mers (random prefix boundary + repeat start, multiplicity
  // within the band) survive.
  for (int i = 0; i < 12; ++i)
    store.add("r", seq::Sequence::from_string(random_dna(40 + i, rng) + repeat));
  const auto unfiltered = discover_tasks(store, 15, 1, 1000);
  EXPECT_EQ(unfiltered.size(), 66u);
  const auto filtered = discover_tasks(store, 15, 2, 8);
  EXPECT_LT(filtered.size(), unfiltered.size() / 2);
}

TEST(Candidates, KeepFracSketchingReducesPostingWork) {
  Xoshiro256 rng(15);
  const std::string shared = random_dna(200, rng);
  seq::ReadStore store;
  for (int i = 0; i < 4; ++i)
    store.add("r", seq::Sequence::from_string(random_dna(20 + 7 * i, rng) + shared));
  // With 200 shared bases there are ~186 shared 15-mers: even keeping 20%
  // of k-mers, every overlapping pair is still found.
  const auto full = discover_tasks(store, 15, 1, 100, 1.0);
  const auto sketched = discover_tasks(store, 15, 1, 100, 0.2);
  EXPECT_EQ(full.size(), sketched.size());
}

TEST(Candidates, DeterministicSeedChoice) {
  Xoshiro256 rng(16);
  const std::string shared = random_dna(80, rng);
  seq::ReadStore store;
  store.add("a", seq::Sequence::from_string(shared + random_dna(30, rng)));
  store.add("b", seq::Sequence::from_string(random_dna(11, rng) + shared));
  const auto t1 = discover_tasks(store, 13, 1, 100);
  const auto t2 = discover_tasks(store, 13, 1, 100);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].seed.a_pos, t2[i].seed.a_pos);
    EXPECT_EQ(t1[i].seed.b_pos, t2[i].seed.b_pos);
    EXPECT_EQ(t1[i].seed.b_reversed, t2[i].seed.b_reversed);
  }
}

// ---------- task byte layout ----------

TEST(TaskLayout, RoundTripsMaximumFieldsAndBothStrands) {
  const AlignTask forward{3, 7, align::Seed{11, 13, 17, false}};
  const AlignTask extreme{0xFFFFFFFEu, 0xFFFFFFFFu,
                          align::Seed{0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFF, true}};
  std::vector<std::uint8_t> bytes;
  put_task(bytes, forward);
  put_task(bytes, extreme);
  ASSERT_EQ(bytes.size(), 2u * 19u);  // the documented 19-byte layout
  std::size_t offset = 0;
  for (const AlignTask& want : {forward, extreme}) {
    const AlignTask got = get_task(bytes, offset);
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);
    EXPECT_EQ(got.seed.a_pos, want.seed.a_pos);
    EXPECT_EQ(got.seed.b_pos, want.seed.b_pos);
    EXPECT_EQ(got.seed.length, want.seed.length);
    EXPECT_EQ(got.seed.b_reversed, want.seed.b_reversed);
  }
  EXPECT_EQ(offset, bytes.size());
}

TEST(TaskLayout, TruncatedBufferThrows) {
  std::vector<std::uint8_t> bytes;
  put_task(bytes, AlignTask{1, 2, align::Seed{3, 4, 5, true}});
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::span<const std::uint8_t> cut(bytes.data(), keep);
    std::size_t offset = 0;
    EXPECT_THROW((void)get_task(cut, offset), Error) << "kept " << keep << " bytes";
  }
}

// ---------- minimizers ----------

TEST(Minimizers, DensityNearExpected) {
  Xoshiro256 rng(21);
  const auto read = make_read(0, random_dna(20'000, rng));
  const std::uint32_t w = 10;
  const auto minimizers = extract_minimizers(read, 15, w);
  const double n_kmers = 20'000 - 15 + 1;
  const double density = static_cast<double>(minimizers.size()) / n_kmers;
  EXPECT_NEAR(density, minimizer_density(w), 0.05);
}

TEST(Minimizers, SubsetOfAllKmers) {
  Xoshiro256 rng(22);
  const auto read = make_read(0, random_dna(1'000, rng));
  const auto all = extract_kmers(read, 13);
  const auto minimizers = extract_minimizers(read, 13, 8);
  EXPECT_LT(minimizers.size(), all.size());
  // Every minimizer is a real k-mer at its reported position.
  for (const auto& m : minimizers) {
    ASSERT_LT(m.occurrence.pos, all.size());
    EXPECT_EQ(all[m.occurrence.pos], m.kmer);
  }
}

TEST(Minimizers, SharedStretchSharesAMinimizer) {
  // Guarantee: two reads sharing >= w+k-1 exact bases share a minimizer.
  Xoshiro256 rng(23);
  const std::uint32_t k = 13, w = 6;
  const std::string shared = random_dna(k + w - 1 + 40, rng);  // comfortably long
  const auto r0 = make_read(0, random_dna(200, rng) + shared);
  const auto r1 = make_read(1, shared + random_dna(150, rng));
  auto keys = [](const std::vector<Minimizer>& ms) {
    std::set<std::uint64_t> s;
    for (const auto& m : ms) s.insert(m.kmer.bits());
    return s;
  };
  const auto k0 = keys(extract_minimizers(r0, k, w));
  const auto k1 = keys(extract_minimizers(r1, k, w));
  bool common = false;
  for (const auto bits : k0) common |= k1.contains(bits);
  EXPECT_TRUE(common);
}

TEST(Minimizers, PositionsAreSortedAndDeduplicated) {
  Xoshiro256 rng(24);
  const auto read = make_read(0, random_dna(3'000, rng));
  const auto minimizers = extract_minimizers(read, 11, 5);
  for (std::size_t i = 1; i < minimizers.size(); ++i)
    EXPECT_LT(minimizers[i - 1].occurrence.pos, minimizers[i].occurrence.pos);
}

TEST(Minimizers, WindowOneKeepsEverything) {
  Xoshiro256 rng(25);
  const auto read = make_read(0, random_dna(500, rng));
  EXPECT_EQ(extract_minimizers(read, 13, 1).size(), extract_kmers(read, 13).size());
}

TEST(Minimizers, NResetsWindows) {
  // Ns split the read into independent segments; no crash, sane output.
  const auto read = make_read(0, "ACGTACGTACGTNNACGTACGTACGTACGT");
  const auto minimizers = extract_minimizers(read, 5, 3);
  EXPECT_GT(minimizers.size(), 0u);
  for (const auto& m : minimizers) {
    // No reported window may straddle the Ns at positions 12-13.
    EXPECT_TRUE(m.occurrence.pos + 5 <= 12 || m.occurrence.pos >= 14);
  }
}

TEST(Candidates, DisjointReadsShareNothing) {
  // Distinct random reads of this size essentially never share a 15-mer.
  Xoshiro256 rng(17);
  seq::ReadStore store;
  for (int i = 0; i < 5; ++i) store.add("r", seq::Sequence::from_string(random_dna(400, rng)));
  EXPECT_TRUE(discover_tasks(store, 15, 1, 100).empty());
}
