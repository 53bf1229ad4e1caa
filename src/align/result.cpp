#include "align/result.hpp"

#include "util/wire.hpp"

namespace gnb::align {

void put_record(std::vector<std::uint8_t>& out, const AlignmentRecord& record) {
  wire::put<std::uint32_t>(out, record.read_a);
  wire::put<std::uint32_t>(out, record.read_b);
  wire::put<std::uint32_t>(out, static_cast<std::uint32_t>(record.alignment.score));
  wire::put<std::uint32_t>(out, record.alignment.a_begin);
  wire::put<std::uint32_t>(out, record.alignment.a_end);
  wire::put<std::uint32_t>(out, record.alignment.b_begin);
  wire::put<std::uint32_t>(out, record.alignment.b_end);
  wire::put<std::uint8_t>(out, record.alignment.b_reversed ? 1 : 0);
  wire::put<std::uint64_t>(out, record.alignment.cells);
}

AlignmentRecord get_record(std::span<const std::uint8_t> in, std::size_t& offset) {
  AlignmentRecord record;
  record.read_a = wire::get<std::uint32_t>(in, offset);
  record.read_b = wire::get<std::uint32_t>(in, offset);
  record.alignment.score = static_cast<std::int32_t>(wire::get<std::uint32_t>(in, offset));
  record.alignment.a_begin = wire::get<std::uint32_t>(in, offset);
  record.alignment.a_end = wire::get<std::uint32_t>(in, offset);
  record.alignment.b_begin = wire::get<std::uint32_t>(in, offset);
  record.alignment.b_end = wire::get<std::uint32_t>(in, offset);
  record.alignment.b_reversed = wire::get<std::uint8_t>(in, offset) != 0;
  record.alignment.cells = wire::get<std::uint64_t>(in, offset);
  return record;
}

}  // namespace gnb::align
