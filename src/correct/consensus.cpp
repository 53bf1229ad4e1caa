#include "correct/consensus.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "align/cigar.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace gnb::correct {

namespace {

// Vote slots: bases 0-4 (A,C,G,T,N) plus deletion.
constexpr std::size_t kDelete = 5;
constexpr std::size_t kSlots = 6;

struct Pileup {
  std::vector<std::array<std::uint32_t, kSlots>> column;  // per read position
  // Single-base insertion votes *after* position p: counts per base.
  std::vector<std::array<std::uint32_t, 5>> insert_after;

  explicit Pileup(std::size_t length) : column(length), insert_after(length + 1) {
    for (auto& c : column) c.fill(0);
    for (auto& c : insert_after) c.fill(0);
  }
};

/// Walk the partner->read CIGAR and register votes.
void add_votes(Pileup& pileup, const align::Cigar& cigar,
               std::span<const std::uint8_t> partner_codes, std::uint32_t partner_begin,
               std::uint32_t read_begin) {
  std::size_t p = partner_begin;  // partner cursor ('a' side of the CIGAR)
  std::size_t r = read_begin;     // read cursor ('b' side)
  for (const align::CigarRun& run : cigar) {
    switch (run.op) {
      case align::CigarOp::kMatch:
      case align::CigarOp::kMismatch:
        for (std::uint32_t t = 0; t < run.length; ++t)
          ++pileup.column[r + t][partner_codes[p + t]];
        p += run.length;
        r += run.length;
        break;
      case align::CigarOp::kInsertion: {
        // Partner has extra bases: a vote to insert after read position
        // r-1 (only the first base of the run is proposed — longer
        // insertions converge over multiple correction rounds).
        const std::uint8_t base = partner_codes[p];
        if (base < 5) ++pileup.insert_after[r][base];
        p += run.length;
        break;
      }
      case align::CigarOp::kDeletion:
        // Partner lacks these read bases: deletion votes.
        for (std::uint32_t t = 0; t < run.length; ++t) ++pileup.column[r + t][kDelete];
        r += run.length;
        break;
    }
  }
}

void accumulate(CorrectionStats& into, const CorrectionStats& read) {
  into.reads_processed += read.reads_processed;
  into.reads_changed += read.reads_changed;
  into.substitutions += read.substitutions;
  into.deletions += read.deletions;
  into.insertions += read.insertions;
  into.positions_covered += read.positions_covered;
  into.positions_total += read.positions_total;
}

/// Correct one read; `local` receives this read's stats alone.
seq::Sequence correct_one(const seq::Sequence& read, std::span<const Evidence> evidence,
                          const CorrectionParams& params, CorrectionStats& local,
                          align::TracebackScratch& scratch) {
  const std::vector<std::uint8_t> own = read.unpack();
  Pileup pileup(own.size());

  for (const Evidence& ev : evidence) {
    GNB_CHECK(ev.partner != nullptr);
    GNB_THROW_IF(ev.read_end > own.size() || ev.read_begin > ev.read_end,
                 "evidence range [" << ev.read_begin << ", " << ev.read_end
                                    << ") out of bounds for a read of length " << own.size());
    const std::vector<std::uint8_t> partner_codes = ev.partner->unpack();
    GNB_THROW_IF(ev.partner_end > partner_codes.size() || ev.partner_begin > ev.partner_end,
                 "evidence range [" << ev.partner_begin << ", " << ev.partner_end
                                    << ") out of bounds for a partner of length "
                                    << partner_codes.size());

    const std::span<const std::uint8_t> x(partner_codes.data() + ev.partner_begin,
                                          ev.partner_end - ev.partner_begin);
    const std::span<const std::uint8_t> y(own.data() + ev.read_begin,
                                          ev.read_end - ev.read_begin);
    if (x.empty() || y.empty()) continue;
    const std::size_t longer = std::max(x.size(), y.size());
    const std::size_t diff = x.size() > y.size() ? x.size() - y.size() : y.size() - x.size();
    const std::size_t band = std::max<std::size_t>(
        diff + 4, params.band_extra + static_cast<std::size_t>(params.band_frac *
                                                               static_cast<double>(longer)));
    const align::TracebackResult tb =
        align::banded_global_traceback(x, y, band, align::kDefaultScoring, scratch);
    add_votes(pileup, tb.cigar, partner_codes, ev.partner_begin, ev.read_begin);
  }

  // Consensus sweep.
  std::vector<std::uint8_t> corrected;
  corrected.reserve(own.size() + own.size() / 16);
  local = CorrectionStats{};
  local.reads_processed = 1;
  local.positions_total = own.size();

  auto apply_insertions = [&](std::size_t gap_index, std::uint32_t coverage_hint) {
    const auto& ins = pileup.insert_after[gap_index];
    std::size_t best = 0;
    for (std::size_t base = 1; base < 5; ++base)
      if (ins[base] > ins[best]) best = base;
    const double needed = params.majority * std::max<double>(coverage_hint, 1.0);
    if (ins[best] > 0 && static_cast<double>(ins[best]) >= needed &&
        ins[best] >= params.min_coverage) {
      corrected.push_back(static_cast<std::uint8_t>(best));
      ++local.insertions;
    }
  };

  // Coverage at position 0's left gap uses position 0's column coverage.
  for (std::size_t pos = 0; pos <= own.size(); ++pos) {
    std::uint32_t coverage = 0;
    if (pos < own.size())
      for (const auto votes : pileup.column[pos]) coverage += votes;
    else if (!own.empty())
      for (const auto votes : pileup.column[pos - 1]) coverage += votes;
    apply_insertions(pos, coverage);
    if (pos == own.size()) break;

    auto votes = pileup.column[pos];
    votes[own[pos]] += params.self_weight;
    const std::uint32_t total = coverage + params.self_weight;
    if (coverage + params.self_weight >= params.min_coverage + params.self_weight &&
        coverage > 0) {
      ++local.positions_covered;
      std::size_t best = 0;
      for (std::size_t slot = 1; slot < kSlots; ++slot)
        if (votes[slot] > votes[best]) best = slot;
      const bool strong =
          static_cast<double>(votes[best]) >= params.majority * static_cast<double>(total);
      if (strong && best == kDelete) {
        ++local.deletions;
        continue;  // drop the base
      }
      if (strong && best != own[pos] && best < 5) {
        corrected.push_back(static_cast<std::uint8_t>(best));
        ++local.substitutions;
        continue;
      }
    }
    corrected.push_back(own[pos]);
  }

  if (local.substitutions + local.deletions + local.insertions > 0) local.reads_changed = 1;
  return seq::Sequence::from_codes(corrected);
}

/// One worker per CPU this process may run on, never more than `reads`.
std::size_t worker_count(std::size_t reads) {
  std::size_t cpus = 0;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    cpus = static_cast<std::size_t>(CPU_COUNT(&set));
  if (cpus == 0) cpus = std::thread::hardware_concurrency();
  return std::min(std::max<std::size_t>(cpus, 1), reads);
}

}  // namespace

seq::Sequence correct_read(const seq::Sequence& read, std::span<const Evidence> evidence,
                           const CorrectionParams& params, CorrectionStats* stats) {
  align::TracebackScratch scratch;
  CorrectionStats local;
  seq::Sequence corrected = correct_one(read, evidence, params, local, scratch);
  if (stats != nullptr) accumulate(*stats, local);
  return corrected;
}

EvidenceSet gather_evidence(const seq::ReadStore& store,
                            std::span<const align::AlignmentRecord> records) {
  EvidenceSet set;
  set.per_read.resize(store.size());
  std::deque<seq::Sequence>& oriented = set.oriented;

  for (const auto& record : records) {
    const align::Alignment& alignment = record.alignment;
    const seq::Read& read_a = store.get(record.read_a);
    const seq::Read& read_b = store.get(record.read_b);
    const auto la = static_cast<std::uint32_t>(read_a.length());
    const auto lb = static_cast<std::uint32_t>(read_b.length());

    // Evidence for A: partner is B in the alignment's orientation.
    {
      Evidence ev;
      if (alignment.b_reversed) {
        ev.partner = &oriented.emplace_back(read_b.sequence.reverse_complement());
      } else {
        ev.partner = &read_b.sequence;
      }
      ev.read_begin = alignment.a_begin;
      ev.read_end = alignment.a_end;
      ev.partner_begin = alignment.b_begin;
      ev.partner_end = alignment.b_end;
      set.per_read[record.read_a].push_back(ev);
    }
    // Evidence for B: partner is A, brought into B's forward frame.
    {
      Evidence ev;
      if (alignment.b_reversed) {
        // Alignment lives in rc(B) coordinates: flip the range onto B
        // forward and reverse-complement the partner segment's frame.
        ev.partner = &oriented.emplace_back(read_a.sequence.reverse_complement());
        ev.read_begin = lb - alignment.b_end;
        ev.read_end = lb - alignment.b_begin;
        ev.partner_begin = la - alignment.a_end;
        ev.partner_end = la - alignment.a_begin;
      } else {
        ev.partner = &read_a.sequence;
        ev.read_begin = alignment.b_begin;
        ev.read_end = alignment.b_end;
        ev.partner_begin = alignment.a_begin;
        ev.partner_end = alignment.a_end;
      }
      set.per_read[record.read_b].push_back(ev);
    }
  }

  return set;
}

CorrectedSet correct_reads(const seq::ReadStore& store,
                           std::span<const align::AlignmentRecord> records,
                           const CorrectionParams& params) {
  const std::size_t reads = store.size();
  const std::size_t workers = worker_count(reads);
  GNB_SPAN(obs::span::kStageCorrect, "reads", reads, "workers", workers);
  const EvidenceSet evidence = gather_evidence(store, records);

  // Reads are independent: each worker claims the next unclaimed ReadId
  // and writes only that read's slots. A failed read stops further claims;
  // every lower ReadId was claimed before it and runs to completion, so the
  // lowest failing ReadId, which is the serial loop's first error, is the
  // one rethrown.
  CorrectedSet out;
  out.reads.resize(reads);
  std::vector<CorrectionStats> per_read(reads);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_read = reads;
  std::exception_ptr error;
  const auto work = [&] {
    align::TracebackScratch scratch;  // per worker, freed when it returns
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t id = next.fetch_add(1, std::memory_order_relaxed);
      if (id >= reads) break;
      try {
        out.reads[id] = correct_one(store.get(static_cast<seq::ReadId>(id)).sequence,
                                    evidence.per_read[id], params, per_read[id], scratch);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (id < error_read) {
          error_read = id;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 1; w < workers; ++w) {
      try {
        threads.emplace_back(work);
      } catch (const std::system_error&) {
        break;  // fewer workers; the output is the same
      }
    }
    work();
  }  // workers join here
  if (error) std::rethrow_exception(error);

  for (const CorrectionStats& read : per_read) accumulate(out.stats, read);
  return out;
}

}  // namespace gnb::correct
