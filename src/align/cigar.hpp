#pragma once
// Base-level alignments: edit transcripts (CIGAR) and a banded global
// aligner with traceback.
//
// The score-only kernels are enough for overlap detection, but downstream
// consumers — error correction (pileup/consensus), polishing, SAM/PAF
// cg-tags — need to know *which* bases pair up. This header provides the
// standard CIGAR representation and a traceback-enabled banded aligner
// for the (already located) overlap region of a read pair.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "align/scoring.hpp"

namespace gnb::align {

enum class CigarOp : std::uint8_t {
  kMatch = 0,     // '=' exact match
  kMismatch = 1,  // 'X' substitution
  kInsertion = 2, // 'I' base present in a, absent in b (consumes a)
  kDeletion = 3,  // 'D' base present in b, absent in a (consumes b)
};

char cigar_char(CigarOp op);

struct CigarRun {
  CigarOp op;
  std::uint32_t length;
};

using Cigar = std::vector<CigarRun>;

/// "12=1X3D9=" style rendering.
std::string cigar_string(const Cigar& cigar);

/// Total bases of a / of b consumed by the transcript.
std::uint64_t cigar_query_span(const Cigar& cigar);
std::uint64_t cigar_target_span(const Cigar& cigar);

/// Alignment identity: matches / aligned columns.
double cigar_identity(const Cigar& cigar);

/// Validate a transcript against the two sequences: spans must match the
/// lengths and '='/'X' runs must agree with the actual bases. Used by
/// tests and debug assertions. Returns false with no side effects.
bool cigar_consistent(const Cigar& cigar, std::span<const std::uint8_t> a,
                      std::span<const std::uint8_t> b);

struct TracebackResult {
  std::int32_t score = 0;
  Cigar cigar;
  std::uint64_t cells = 0;
};

/// Working memory of banded_global_traceback: two score rows and the
/// 2-bit direction matrix. A caller that aligns many pairs keeps one per
/// thread; the buffers grow to the largest call and are reused.
struct TracebackScratch {
  std::vector<std::int32_t> prev, curr;
  std::vector<std::uint8_t> dir;
};

/// Global alignment of `a` vs `b` within |i-j| <= band, with traceback.
/// Memory O(band * |a| / 4) bytes. Throws gnb::Error if the band cannot
/// contain a global path (band < length difference).
TracebackResult banded_global_traceback(std::span<const std::uint8_t> a,
                                        std::span<const std::uint8_t> b, std::size_t band,
                                        const Scoring& scoring = kDefaultScoring);
TracebackResult banded_global_traceback(std::span<const std::uint8_t> a,
                                        std::span<const std::uint8_t> b, std::size_t band,
                                        const Scoring& scoring, TracebackScratch& scratch);

}  // namespace gnb::align
