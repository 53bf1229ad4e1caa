#include "kmer/candidates.hpp"

#include <algorithm>
#include <tuple>

#include "kmer/counter.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"

namespace gnb::kmer {

void put_task(std::vector<std::uint8_t>& out, const AlignTask& task) {
  wire::put<std::uint32_t>(out, task.a);
  wire::put<std::uint32_t>(out, task.b);
  wire::put<std::uint32_t>(out, task.seed.a_pos);
  wire::put<std::uint32_t>(out, task.seed.b_pos);
  wire::put<std::uint16_t>(out, task.seed.length);
  wire::put<std::uint8_t>(out, task.seed.b_reversed ? 1 : 0);
}

AlignTask get_task(std::span<const std::uint8_t> in, std::size_t& offset) {
  AlignTask task;
  task.a = wire::get<std::uint32_t>(in, offset);
  task.b = wire::get<std::uint32_t>(in, offset);
  task.seed.a_pos = wire::get<std::uint32_t>(in, offset);
  task.seed.b_pos = wire::get<std::uint32_t>(in, offset);
  task.seed.length = wire::get<std::uint16_t>(in, offset);
  task.seed.b_reversed = wire::get<std::uint8_t>(in, offset) != 0;
  return task;
}

bool seed_less(const align::Seed& x, const align::Seed& y) {
  return std::tie(x.a_pos, x.b_pos, x.b_reversed) < std::tie(y.a_pos, y.b_pos, y.b_reversed);
}

void PostingIndex::add_read(const seq::Read& read) {
  for_each_kmer(read, k_, [this](const Kmer& km, const Occurrence& occ) {
    if (mix64(km.bits()) > keep_threshold_) return;  // fraction sketching
    if (retained_.contains(km)) lists_[km].push_back(occ);
  });
}

std::vector<AlignTask> generate_tasks(const PostingIndex& index,
                                      const std::vector<std::size_t>& read_lengths) {
  const std::uint32_t k = index.k();
  std::unordered_map<std::uint64_t, AlignTask> dedup;

  for (const auto& [km, occs] : index.lists()) {
    for (std::size_t i = 0; i < occs.size(); ++i) {
      for (std::size_t j = i + 1; j < occs.size(); ++j) {
        if (occs[i].read == occs[j].read) continue;  // self-pairs are not overlaps
        const Occurrence& oa = occs[i].read < occs[j].read ? occs[i] : occs[j];
        const Occurrence& ob = occs[i].read < occs[j].read ? occs[j] : occs[i];
        const std::uint64_t key = (static_cast<std::uint64_t>(oa.read) << 32) | ob.read;

        AlignTask task;
        task.a = oa.read;
        task.b = ob.read;
        task.seed.length = static_cast<std::uint16_t>(k);
        task.seed.a_pos = oa.pos;
        if (oa.reversed == ob.reversed) {
          // Same strand relative to the canonical form: forward match.
          task.seed.b_pos = ob.pos;
          task.seed.b_reversed = false;
        } else {
          // Opposite strands: the seed matches a's forward sequence against
          // the reverse complement of b; translate b's coordinate.
          GNB_CHECK(ob.read < read_lengths.size());
          const auto blen = static_cast<std::uint32_t>(read_lengths[ob.read]);
          GNB_CHECK(ob.pos + k <= blen);
          task.seed.b_pos = blen - k - ob.pos;
          task.seed.b_reversed = true;
        }
        // One seed per candidate overlap; pick deterministically (smallest
        // seed coordinates win) so serial and distributed pipelines agree.
        const auto [it, inserted] = dedup.emplace(key, task);
        if (!inserted && seed_less(task.seed, it->second.seed)) it->second = task;
      }
    }
  }

  std::vector<AlignTask> tasks;
  tasks.reserve(dedup.size());
  for (auto& [key, task] : dedup) tasks.push_back(task);
  // Deterministic order regardless of hash-map iteration.
  std::sort(tasks.begin(), tasks.end(), [](const AlignTask& x, const AlignTask& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return tasks;
}

std::vector<AlignTask> discover_tasks(const seq::ReadStore& reads, std::uint32_t k,
                                      std::uint64_t lo, std::uint64_t hi, double keep_frac) {
  KmerCounter counter;
  counter.count_reads(reads.reads(), k);
  KmerSet retained;
  for (const Kmer& km : counter.retained(lo, hi)) retained.insert(km);

  PostingIndex index(retained, k, keep_frac);
  for (const auto& read : reads.reads()) index.add_read(read);

  std::vector<std::size_t> lengths(reads.size());
  for (const auto& read : reads.reads()) lengths[read.id] = read.length();
  return generate_tasks(index, lengths);
}

}  // namespace gnb::kmer
