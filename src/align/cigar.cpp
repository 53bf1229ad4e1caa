#include "align/cigar.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace gnb::align {

namespace {
constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

// 2-bit traceback directions; kNone = 0 marks a cell the DP never wrote.
enum Dir : std::uint8_t { kNone = 0, kDiag = 1, kUp = 2, kLeft = 3 };
}  // namespace

char cigar_char(CigarOp op) {
  switch (op) {
    case CigarOp::kMatch:     return '=';
    case CigarOp::kMismatch:  return 'X';
    case CigarOp::kInsertion: return 'I';
    case CigarOp::kDeletion:  return 'D';
  }
  return '?';
}

std::string cigar_string(const Cigar& cigar) {
  std::ostringstream oss;
  for (const CigarRun& run : cigar) oss << run.length << cigar_char(run.op);
  return oss.str();
}

std::uint64_t cigar_query_span(const Cigar& cigar) {
  std::uint64_t span = 0;
  for (const CigarRun& run : cigar)
    if (run.op != CigarOp::kDeletion) span += run.length;
  return span;
}

std::uint64_t cigar_target_span(const Cigar& cigar) {
  std::uint64_t span = 0;
  for (const CigarRun& run : cigar)
    if (run.op != CigarOp::kInsertion) span += run.length;
  return span;
}

double cigar_identity(const Cigar& cigar) {
  std::uint64_t matches = 0, columns = 0;
  for (const CigarRun& run : cigar) {
    columns += run.length;
    if (run.op == CigarOp::kMatch) matches += run.length;
  }
  return columns ? static_cast<double>(matches) / static_cast<double>(columns) : 0.0;
}

bool cigar_consistent(const Cigar& cigar, std::span<const std::uint8_t> a,
                      std::span<const std::uint8_t> b) {
  std::size_t i = 0, j = 0;
  for (const CigarRun& run : cigar) {
    switch (run.op) {
      case CigarOp::kMatch:
      case CigarOp::kMismatch:
        if (i + run.length > a.size() || j + run.length > b.size()) return false;
        for (std::uint32_t t = 0; t < run.length; ++t) {
          // N never counts as a match (scoring treats it as mismatch).
          const bool equal =
              a[i + t] == b[j + t] && a[i + t] != seq::kN && b[j + t] != seq::kN;
          if (equal != (run.op == CigarOp::kMatch)) return false;
        }
        i += run.length;
        j += run.length;
        break;
      case CigarOp::kInsertion:
        if (i + run.length > a.size()) return false;
        i += run.length;
        break;
      case CigarOp::kDeletion:
        if (j + run.length > b.size()) return false;
        j += run.length;
        break;
    }
  }
  return i == a.size() && j == b.size();
}

TracebackResult banded_global_traceback(std::span<const std::uint8_t> a,
                                        std::span<const std::uint8_t> b, std::size_t band,
                                        const Scoring& scoring) {
  TracebackScratch scratch;
  return banded_global_traceback(a, b, band, scoring, scratch);
}

// Row i covers columns [lo, hi] = [max(0, i-band), min(nb, i+band)]. For
// j >= 1 the diagonal predecessor (i-1, j-1) is always inside row i-1's
// band, so by induction every in-band cell holds a finite score. The only
// reads that can fall outside the band are curr[lo-1] (left of the first
// cell) and prev[i+band] (above the last cell when i+band <= nb); both get
// a kNegInf sentinel, which loses every strict comparison against the
// finite diagonal. That keeps the tie order (diag, then up, then left,
// each only if strictly better) without any per-cell validity test.
TracebackResult banded_global_traceback(std::span<const std::uint8_t> a,
                                        std::span<const std::uint8_t> b, std::size_t band,
                                        const Scoring& scoring, TracebackScratch& scratch) {
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  const std::size_t diff = na > nb ? na - nb : nb - na;
  GNB_THROW_IF(diff > band, "banded traceback: band " << band << " narrower than length "
                                                      << "difference " << diff);
  // A band wider than the longer side covers the whole matrix either way.
  band = std::min(band, std::max(na, nb));
  const std::size_t row_bytes = (2 * band + 1 + 3) / 4;

  TracebackResult result;
  // Row i stores column j at 2-bit slot j - i + band of its row_bytes.
  scratch.dir.assign((na + 1) * row_bytes, 0);
  std::uint8_t* const dir = scratch.dir.data();
  const auto put = [&](std::size_t i, std::size_t j, std::uint8_t direction) {
    const std::size_t slot = j + band - i;
    dir[i * row_bytes + slot / 4] |= static_cast<std::uint8_t>(direction << (slot % 4 * 2));
  };
  const auto get = [&](std::size_t i, std::size_t j) -> std::uint8_t {
    const std::size_t slot = j + band - i;
    return (dir[i * row_bytes + slot / 4] >> (slot % 4 * 2)) & 3;
  };

  // No fill: every read outside the band hits a sentinel (see above).
  scratch.prev.resize(nb + 1);
  scratch.curr.resize(nb + 1);
  const std::int32_t gap = scoring.gap;
  std::int32_t* prev = scratch.prev.data();
  std::int32_t* curr = scratch.curr.data();
  for (std::size_t j = 0; j <= std::min(band, nb); ++j) {
    prev[j] = static_cast<std::int32_t>(j) * gap;
    if (j != 0) put(0, j, kLeft);
  }

  for (std::size_t i = 1; i <= na; ++i) {
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(nb, i + band);
    std::size_t j = lo;
    if (lo == 0) {
      curr[0] = static_cast<std::int32_t>(i) * gap;
      put(i, 0, kUp);
      j = 1;
    } else {
      curr[lo - 1] = kNegInf;
    }
    if (i + band <= nb) prev[i + band] = kNegInf;
    result.cells += hi - lo + 1;

    // Substitution scores of a[i-1] against each code, and the 2-bit
    // directions gathered four to a byte before they are stored.
    std::array<std::int32_t, 5> sub{};
    for (std::uint8_t code = 0; code < 5; ++code)
      sub[code] = scoring.substitution(a[i - 1], code);
    std::size_t slot = j + band - i;
    std::uint8_t* out = dir + i * row_bytes + slot / 4;
    unsigned packed = *out;
    unsigned shift = slot % 4 * 2;
    std::int32_t left = curr[j - 1];
    for (; j <= hi; ++j) {
      // Branch-free select in the tie order: diag; up if strictly better;
      // left if strictly better than both.
      const std::int32_t diag = prev[j - 1] + sub[b[j - 1]];
      const std::int32_t up = prev[j] + gap;
      const unsigned take_up = up > diag;
      const std::int32_t vertical = std::max(diag, up);
      left += gap;
      const unsigned take_left = left > vertical;
      left = std::max(vertical, left);
      curr[j] = left;
      packed |= ((kDiag + take_up) | take_left * kLeft) << shift;
      shift += 2;
      if (shift == 8) {
        *out++ = static_cast<std::uint8_t>(packed);
        packed = shift = 0;
      }
    }
    if (shift != 0) *out = static_cast<std::uint8_t>(packed);
    std::swap(prev, curr);
  }
  result.score = prev[nb];

  // Traceback from (na, nb).
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
    const std::uint8_t direction = get(i, j);
    GNB_CHECK_MSG(direction != kNone, "traceback escaped the band at (" << i << "," << j << ")");
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

}  // namespace gnb::align
