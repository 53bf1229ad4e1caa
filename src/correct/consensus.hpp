#pragma once
// Overlap-based read error correction — the paper's second motivating
// downstream use ("for correcting errors in the reads", §2).
//
// For each read, every accepted overlap contributes a base-level
// re-alignment of the partner against the read (banded global with
// traceback over the overlap region). Aligned partner bases vote per read
// position — substitute / keep / delete — plus single-base insertion
// votes between positions; a majority consensus over the pileup rewrites
// the read. With depth d and independent per-base error e, a position is
// miscorrected only when about half of ~d votes err simultaneously, so
// the output error rate drops sharply (tested against ground truth).

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "align/result.hpp"
#include "seq/read_store.hpp"

namespace gnb::correct {

struct CorrectionParams {
  /// Banding for the per-overlap re-alignment: band = extra + frac * len.
  std::uint32_t band_extra = 32;
  double band_frac = 0.25;
  /// Positions with fewer total votes than this keep the original base.
  std::uint32_t min_coverage = 3;
  /// Fraction of votes a change (substitution/deletion/insertion) needs.
  double majority = 0.6;
  /// Own-base vote weight (the read trusts itself this much).
  std::uint32_t self_weight = 1;
};

struct CorrectionStats {
  std::uint64_t reads_processed = 0;
  std::uint64_t reads_changed = 0;
  std::uint64_t substitutions = 0;
  std::uint64_t deletions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t positions_covered = 0;  // read positions with >= min_coverage
  std::uint64_t positions_total = 0;
};

/// One partner's evidence for correcting `read`: the partner sequence
/// (already oriented to the read's forward frame) and the aligned ranges.
struct Evidence {
  const seq::Sequence* partner = nullptr;  // oriented partner
  std::uint32_t read_begin = 0, read_end = 0;        // on the read, forward
  std::uint32_t partner_begin = 0, partner_end = 0;  // on the oriented partner
};

/// Correct a single read from explicit evidence. Exposed for testing and
/// for callers with their own overlap bookkeeping. Throws gnb::Error when
/// an evidence range runs past its read or its partner.
seq::Sequence correct_read(const seq::Sequence& read, std::span<const Evidence> evidence,
                           const CorrectionParams& params, CorrectionStats* stats = nullptr);

/// Per-read evidence from an overlap set: each record yields evidence for
/// both of its reads (B in A's frame, A in B's). `oriented` owns the
/// reverse-complemented partners that evidence points into; the rest point
/// into the store.
struct EvidenceSet {
  std::vector<std::vector<Evidence>> per_read;  // by ReadId
  std::deque<seq::Sequence> oriented;
};

EvidenceSet gather_evidence(const seq::ReadStore& store,
                            std::span<const align::AlignmentRecord> records);

struct CorrectedSet {
  std::vector<seq::Sequence> reads;  // by ReadId; uncovered reads unchanged
  CorrectionStats stats;
};

/// Correct every read of `store` using the accepted overlap set (both
/// sides of each alignment serve as evidence for the other). Reads are
/// split across one worker thread per CPU the process may run on; the
/// output and stats equal correct_read over gather_evidence in ReadId
/// order, and an error in any worker is rethrown here.
CorrectedSet correct_reads(const seq::ReadStore& store,
                           std::span<const align::AlignmentRecord> records,
                           const CorrectionParams& params = {});

}  // namespace gnb::correct
