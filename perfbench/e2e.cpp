// gnb_e2e — one seeded end-to-end pipeline session of the repo benchmark.
//
// The benchmark side generates the workload's fixed reference genome
// (wl::generate_genome, --genome-seed) and draws reads from it with --seed
// (wl::sample_reads). It keeps the truth (genome and per-read origins) and
// hands the pipeline only the reads, as a FASTA file. Parsing that file
// into a seq::ReadStore is the set-up. It is timed kSetupReps times before
// the first iteration and again before each one, so its samples spread over
// the session as the iterations do. The pipeline then runs over and over
// for --seconds, each layer call timed from outside:
//
//   kmer     pipeline::run_serial   (partition, k-mer count/filter, join, assign)
//   engine   core::bsp_align | core::async_align inside an rt::World
//   graph    pipeline::run_distributed_assembly
//   correct  correct::correct_reads                (--correct 1)
//
// With --trace 1 every second iteration runs with obs::Tracer recording,
// adds the benchmark's own bench.* spans around each layer call, and is
// analysed with obs::analysis (self time per span name, critical path).
//
// Outputs are checked against the truth outside the timed region. Every
// record goes to stdout as one JSON object per line; perfbench/run.py
// aggregates them into medians, runs the checks and prints the result.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/cigar.hpp"
#include "core/async.hpp"
#include "core/bsp.hpp"
#include "correct/consensus.hpp"
#include "kmer/bella_filter.hpp"
#include "obs/analysis.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "pipeline/assembly.hpp"
#include "pipeline/pipeline.hpp"
#include "proto/config.hpp"
#include "rt/world.hpp"
#include "seq/fasta.hpp"
#include "stat/breakdown.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wl/genome.hpp"
#include "wl/sampler.hpp"

#ifndef GNB_E2E_BUILD_TYPE
#define GNB_E2E_BUILD_TYPE "unknown"
#endif

using namespace gnb;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One flat JSON object, written as a single stdout line.
class Record {
 public:
  explicit Record(const char* type) { text_ << "{\"type\":\"" << type << '"'; }
  Record& num(const std::string& key, double value) {
    text_ << ",\"" << key << "\":" << std::setprecision(std::numeric_limits<double>::max_digits10)
          << value;
    return *this;
  }
  Record& count(const std::string& key, std::uint64_t value) {
    text_ << ",\"" << key << "\":" << value;
    return *this;
  }
  Record& str(const std::string& key, const std::string& value) {
    text_ << ",\"" << key << "\":\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') text_ << '\\';
      text_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    text_ << '"';
    return *this;
  }
  void emit() {
    text_ << "}\n";
    std::fputs(text_.str().c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  std::ostringstream text_;
};

/// FNV-1a, for output digests.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(std::span<const std::uint8_t> bytes) {
    add(bytes.size());
    for (const std::uint8_t b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The per-workload parameters (perfbench/workloads.json). Data parameters
/// not listed here are gnbody simulate's defaults: 5% repeats, 12% error.
struct Workload {
  std::size_t genome = 100'000;
  std::uint64_t genome_seed = 1;  // the reference is fixed; --seed draws the reads
  double coverage = 20;           // also the depth the BELLA band assumes
  double mean_length = 1500;
  std::uint32_t k = 17;
  bool async = false;
  std::size_t ranks = 4;
  std::size_t threads = 1;
  std::int32_t min_score = 50;
  std::uint32_t min_overlap = 100;
  bool correct = false;
};

constexpr double kErrorRate = 0.12;
constexpr std::uint64_t kMinIterations = 3;
constexpr std::uint64_t kSetupReps = 5;  // FASTA parses per set-up round
constexpr std::size_t kIdentityReads = 200;  // reads sampled for the identity check
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;  // events per track

struct Truth {
  seq::Sequence genome;
  std::vector<wl::ReadOrigin> origins;
  /// Read pairs (a < b) whose true overlap is at least the workload's
  /// min overlap, sorted.
  std::vector<std::pair<seq::ReadId, seq::ReadId>> pairs;
};

std::vector<std::pair<seq::ReadId, seq::ReadId>> true_pairs(
    const std::vector<wl::ReadOrigin>& origins, std::uint32_t min_overlap) {
  std::vector<seq::ReadId> by_begin(origins.size());
  for (seq::ReadId i = 0; i < origins.size(); ++i) by_begin[i] = i;
  std::sort(by_begin.begin(), by_begin.end(), [&](seq::ReadId x, seq::ReadId y) {
    return origins[x].genome_begin < origins[y].genome_begin;
  });
  std::vector<std::pair<seq::ReadId, seq::ReadId>> pairs;
  for (std::size_t i = 0; i < by_begin.size(); ++i) {
    const wl::ReadOrigin& a = origins[by_begin[i]];
    for (std::size_t j = i + 1; j < by_begin.size(); ++j) {
      const wl::ReadOrigin& b = origins[by_begin[j]];
      if (b.genome_begin >= a.genome_end) break;
      if (wl::true_overlap(a, b) < min_overlap) continue;
      pairs.emplace_back(std::min(by_begin[i], by_begin[j]), std::max(by_begin[i], by_begin[j]));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Identity of `read` to its true genome interval (banded global
/// traceback, band = length difference + 80).
double identity_to_truth(const Truth& truth, const seq::Sequence& read, seq::ReadId id) {
  const wl::ReadOrigin& origin = truth.origins[id];
  seq::Sequence fragment =
      truth.genome.subseq(origin.genome_begin, origin.genome_end - origin.genome_begin);
  if (origin.reverse_strand) fragment = fragment.reverse_complement();
  const auto a = read.unpack();
  const auto b = fragment.unpack();
  const std::size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  return align::cigar_identity(align::banded_global_traceback(a, b, diff + 80).cigar);
}

/// Mean identity over every `stride`-th read.
template <typename ReadAt>
double mean_identity(const Truth& truth, std::size_t nreads, std::size_t stride, ReadAt read_at) {
  double sum = 0;
  std::size_t measured = 0;
  for (seq::ReadId id = 0; id < nreads; id += static_cast<seq::ReadId>(stride)) {
    sum += identity_to_truth(truth, read_at(id), id);
    ++measured;
  }
  return measured == 0 ? 0.0 : sum / static_cast<double>(measured);
}

seq::ReadStore parse_fasta(const std::string& path) {
  std::ifstream in(path);
  GNB_THROW_IF(!in, "cannot open input: " << path);
  seq::ReadStore store;
  seq::FastaReader reader(in);
  while (auto record = reader.next()) store.add(record->name, std::move(record->sequence));
  GNB_THROW_IF(store.empty(), "no reads in " << path);
  return store;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto value = line.find_first_not_of(' ', line.find(':') + 1);
      if (value != std::string::npos) return line.substr(value);
    }
  }
  return "unknown";
}

/// CPU seconds (user + system) the process has used so far.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// The benchmark's own spans around each layer call (traced iterations).
constexpr const char* kSpanIteration = "bench.iteration";
constexpr const char* kSpanKmer = "bench.kmer";
constexpr const char* kSpanEngine = "bench.engine";
constexpr const char* kSpanGraph = "bench.graph";
constexpr const char* kSpanCorrect = "bench.correct";

/// Everything one pipeline iteration leaves behind for the checks.
struct Outputs {
  std::vector<align::AlignmentRecord> records;
  std::vector<seq::Sequence> corrected;
  graph::AssemblyResult assembly;
};

/// One pipeline iteration: times each layer from outside and fills `rec`
/// with the counters the layers return.
Outputs run_pipeline(const Workload& w, const seq::ReadStore& reads, Record& rec) {
  Outputs out;
  const auto start = Clock::now();
  const double cpu_start = process_cpu_s();

  // --- kmer: stages 1-3 ---------------------------------------------------
  auto t = Clock::now();
  pipeline::TaskSet tasks;
  {
    obs::ScopedSpan span(kSpanKmer);
    const auto band =
        kmer::reliable_bounds(kmer::BellaParams{w.coverage, kErrorRate, w.k, 1e-3});
    pipeline::PipelineConfig config;
    config.k = w.k;
    config.lo = band.lo;
    config.hi = band.hi;
    tasks = pipeline::run_serial(reads, config, w.ranks);
  }
  const double kmer_s = seconds_since(t);
  rec.num("kmer.wall_s", kmer_s)
      .num("kmer.mbp_per_s", static_cast<double>(reads.total_bases()) / 1e6 / kmer_s)
      .count("kmer.tasks", tasks.total_tasks());

  // --- engine: bsp_align / async_align in an rt::World ---------------------
  core::EngineConfig engine;
  engine.filter = align::AlignmentFilter{w.min_score, w.min_overlap};
  engine.proto.compute_threads = w.threads;
  engine.proto.batch_aligner = proto::BatchAlignerKind::kAuto;
  engine.proto.wire_compression = proto::WireCompression::kAuto;
  engine.proto.ranks_per_node = 1;
  std::vector<core::EngineResult> per_rank(w.ranks);
  stat::Summary summary;
  double rank_compute_sum = 0;
  t = Clock::now();
  {
    obs::ScopedSpan span(kSpanEngine);
    rt::World world(w.ranks);
    world.run([&](rt::Rank& rank) {
      const auto& mine = tasks.per_rank[rank.id()];
      per_rank[rank.id()] = w.async ? core::async_align(rank, reads, tasks.bounds, mine, engine)
                                    : core::bsp_align(rank, reads, tasks.bounds, mine, engine);
    });
    summary = stat::summarize(world.breakdowns());
    for (const stat::Breakdown& b : world.breakdowns()) rank_compute_sum += b.compute;
  }
  const double engine_s = seconds_since(t);

  std::uint64_t rounds = 0, messages = 0, tasks_done = 0;
  std::uint64_t sent = 0, received = 0, raw = 0;
  for (core::EngineResult& part : per_rank) {
    rounds = std::max(rounds, part.rounds);
    messages += part.messages;
    tasks_done += part.tasks_done;
    sent += part.exchange_bytes_sent;
    received += part.exchange_bytes_received;
    raw += part.wire_raw_bytes;
    out.records.insert(out.records.end(), part.accepted.begin(), part.accepted.end());
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b) < std::tie(y.read_a, y.read_b);
            });
  const stat::ComputeCounters& cc = summary.compute_layer;
  rec.num("engine.wall_s", engine_s)
      .num("engine.compute_s", summary.compute_avg)
      .num("engine.comm_s", summary.comm_avg)
      .num("engine.sync_s", summary.sync_avg)
      .num("engine.imbalance", summary.load_imbalance)
      .count("engine.rounds", rounds)
      .count("engine.messages", messages)
      .count("engine.tasks_done", tasks_done)
      .count("engine.accepted", out.records.size())
      .count("engine.peak_mem_bytes", summary.peak_memory_max)
      .count("cache.hits", cc.cache_hits)
      .count("cache.misses", cc.cache_misses)
      .num("cache.hit_ratio", cc.hit_rate())
      .count("pool.tasks", cc.pool_tasks)
      .count("kernel.cells", cc.kernel_cells)
      .num("kernel.mcells_per_s",
           rank_compute_sum > 0 ? static_cast<double>(cc.kernel_cells) / 1e6 / rank_compute_sum
                                : 0.0)
      .num("kernel.occupancy", cc.lane_occupancy())
      .num("kernel.tasks_per_batch",
           cc.kernel_batches == 0 ? 0.0
                                  : static_cast<double>(cc.kernel_tasks) /
                                        static_cast<double>(cc.kernel_batches))
      .str("kernel.backend", stat::ComputeCounters::kernel_backend_name(cc.kernel_backend))
      .count("wire.raw_bytes", raw)
      .count("wire.sent_bytes", sent)
      .num("wire.compress_x", sent == 0 ? 1.0 : static_cast<double>(raw) / static_cast<double>(sent))
      .num("wire.conservation_gap_bytes",
           static_cast<double>(sent) - static_cast<double>(received))
      .count("rt.rpc_retries", summary.faults.retries)
      .count("rt.rpc_timeouts", summary.faults.timeouts);

  // --- graph: distributed string graph, reduction, contigs -----------------
  // Run on every workload: it is under 1% of wall_s, and it gives each one
  // an assembly whose digest the determinism check covers.
  pipeline::DistributedAssemblyOptions options;  // as `gnbody assemble`
  options.assembly.min_overlap = 250;
  options.assembly.max_overhang = 700;
  options.assembly.end_slack = 60;
  options.assembly.fuzz = 180;
  options.assembly.prune = true;
  std::vector<std::vector<align::AlignmentRecord>> shards(w.ranks);
  for (const align::AlignmentRecord& record : out.records) {
    const auto it = std::upper_bound(tasks.bounds.begin(), tasks.bounds.end(), record.read_a);
    shards[static_cast<std::size_t>(it - tasks.bounds.begin()) - 1].push_back(record);
  }
  std::vector<pipeline::DistributedAssembly> graph_ranks(w.ranks);
  std::uint64_t edges = 0;
  t = Clock::now();
  {
    obs::ScopedSpan span(kSpanGraph);
    rt::World world(w.ranks);
    world.run([&](rt::Rank& rank) {
      graph_ranks[rank.id()] = pipeline::run_distributed_assembly(
          rank, reads, tasks.bounds, shards[rank.id()], options);
    });
    edges = world.metrics().counter(obs::metric::kGraphEdges);
  }
  const double graph_s = seconds_since(t);
  out.assembly = std::move(graph_ranks.front().result);
  rec.num("graph.wall_s", graph_s)
      .count("graph.reduce_rounds", graph_ranks.front().reduce_rounds)
      .count("graph.edges", edges)
      .count("graph.n50", out.assembly.stats.n50);

  // --- correct: consensus correction from the overlap pileup ---------------
  double correct_s = 0;
  if (w.correct) {
    t = Clock::now();
    correct::CorrectedSet corrected;
    {
      obs::ScopedSpan span(kSpanCorrect);
      corrected = correct::correct_reads(reads, out.records);
    }
    correct_s = seconds_since(t);
    const correct::CorrectionStats& s = corrected.stats;
    rec.num("correct.wall_s", correct_s)
        .num("correct.reads_per_s", static_cast<double>(s.reads_processed) / correct_s)
        .count("correct.evidences", 2 * out.records.size())
        .count("correct.reads_changed", s.reads_changed)
        .num("correct.covered_frac",
             s.positions_total == 0 ? 0.0
                                    : static_cast<double>(s.positions_covered) /
                                          static_cast<double>(s.positions_total));
    out.corrected = std::move(corrected.reads);
  }

  const double wall = seconds_since(start);
  rec.num("wall_s", wall)
      .num("cpu_s", process_cpu_s() - cpu_start)
      .num("mbp_per_s", static_cast<double>(reads.total_bases()) / 1e6 / wall)
      .num("layers.coverage", (kmer_s + engine_s + graph_s + correct_s) / wall);
  return out;
}

/// Quality of one iteration's outputs against the truth, plus digests.
/// `identities` caches the corrected identity by corrected-reads digest.
void check_outputs(const Workload& w, const Truth& truth, const seq::ReadStore& reads,
                   const Outputs& out, double input_identity, std::size_t stride,
                   std::map<std::string, double>& identities, Record& rec) {
  Digest records_digest;
  std::vector<std::pair<seq::ReadId, seq::ReadId>> accepted;
  accepted.reserve(out.records.size());
  for (const align::AlignmentRecord& r : out.records) {
    const align::Alignment& a = r.alignment;
    for (const std::uint64_t v :
         {std::uint64_t{r.read_a}, std::uint64_t{r.read_b}, static_cast<std::uint64_t>(a.score),
          std::uint64_t{a.a_begin}, std::uint64_t{a.a_end}, std::uint64_t{a.b_begin},
          std::uint64_t{a.b_end}, std::uint64_t{a.b_reversed}, a.cells})
      records_digest.add(v);
    accepted.emplace_back(std::min(r.read_a, r.read_b), std::max(r.read_a, r.read_b));
  }
  std::sort(accepted.begin(), accepted.end());
  accepted.erase(std::unique(accepted.begin(), accepted.end()), accepted.end());
  std::vector<std::pair<seq::ReadId, seq::ReadId>> hit;
  std::set_intersection(accepted.begin(), accepted.end(), truth.pairs.begin(), truth.pairs.end(),
                        std::back_inserter(hit));
  std::uint64_t overlapping = 0;
  for (const auto& [a, b] : accepted)
    overlapping += wl::true_overlap(truth.origins[a], truth.origins[b]) > 0 ? 1 : 0;
  rec.str("digest.records", records_digest.hex())
      .count("truth.pairs", truth.pairs.size())
      .count("truth.accepted_pairs", accepted.size())
      .count("truth.true_accepted", hit.size())
      .count("truth.overlapping_accepted", overlapping)
      .num("overlap_recall", truth.pairs.empty() ? 0.0
                                                 : static_cast<double>(hit.size()) /
                                                       static_cast<double>(truth.pairs.size()))
      .num("overlap_precision", accepted.empty() ? 0.0
                                                 : static_cast<double>(overlapping) /
                                                       static_cast<double>(accepted.size()))
      .num("overlap_precision_strict", accepted.empty() ? 0.0
                                                        : static_cast<double>(hit.size()) /
                                                              static_cast<double>(accepted.size()))
      .num("input_identity", input_identity);

  Digest contigs_digest;
  contigs_digest.add(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(out.assembly.gfa.data()), out.assembly.gfa.size()));
  rec.str("digest.contigs", contigs_digest.hex());

  if (!w.correct) {
    // No correction stage: the reads the pipeline hands on are the input.
    rec.num("corrected_identity", input_identity);
    return;
  }
  Digest corrected_digest;
  for (const seq::Sequence& s : out.corrected) corrected_digest.add(s.unpack());
  const std::string digest = corrected_digest.hex();
  auto it = identities.find(digest);
  if (it == identities.end()) {
    const double identity = mean_identity(
        truth, reads.size(), stride,
        [&](seq::ReadId id) -> const seq::Sequence& { return out.corrected[id]; });
    it = identities.emplace(digest, identity).first;
  }
  rec.str("digest.corrected", digest).num("corrected_identity", it->second);
}

/// Self time per span name (all tracks), the critical path, and the
/// span-derived engine compute of one traced iteration.
void analyse_trace(const std::string& json, std::size_t ranks, Record& rec) {
  namespace an = obs::analysis;
  const an::Trace trace = an::load_trace(json);
  const an::Report report = an::analyze(trace);
  std::map<std::string, double> self;
  double engine_compute = 0;
  for (const an::Track& track : trace.tracks) {
    for (const an::Span& span : track.spans) {
      const double s = static_cast<double>(span.self_ns) * 1e-9;
      self[span.name] += s;
      if (track.pid < ranks && an::categorize(span.name) == an::Category::kCompute &&
          span.name.rfind("graph.", 0) != 0)
        engine_compute += s;
    }
  }
  for (const auto& [name, seconds] : self) rec.num("self." + name, seconds);
  std::map<std::string, double> critical;
  for (const an::CriticalSegment& seg : report.critical_path)
    critical[seg.dominant_span] += static_cast<double>(seg.end_ns - seg.begin_ns) * 1e-9;
  for (const auto& [name, seconds] : critical) rec.num("critical." + name, seconds);
  for (std::size_t c = 0; c < an::kCategories; ++c)
    rec.num(std::string("attr.") + an::to_string(static_cast<an::Category>(c)),
            report.attribution_seconds[c]);
  rec.num("trace.critical_path_s", report.critical_path_seconds)
      .num("trace.span_engine_compute_s", engine_compute / static_cast<double>(ranks));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("gnb_e2e", "One seeded end-to-end pipeline session (JSON lines on stdout)");
  auto seed = cli.opt<std::uint64_t>("seed", 1, "read sampling RNG seed");
  auto seconds = cli.opt<double>("seconds", 10, "measuring time budget");
  auto trace = cli.opt<std::uint64_t>("trace", 0, "1 = every second iteration is traced");
  auto fasta = cli.opt<std::string>("fasta", "reads.fa", "where to write the reads");
  auto genome = cli.opt<std::uint64_t>("genome", 100'000, "reference length");
  auto genome_seed = cli.opt<std::uint64_t>("genome-seed", 1, "reference RNG seed");
  auto coverage = cli.opt<double>("coverage", 20, "sequencing depth");
  auto mean_length = cli.opt<double>("mean-length", 1500, "mean read length");
  auto k = cli.opt<std::uint64_t>("k", 17, "k-mer length");
  auto engine = cli.opt<std::string>("engine", "bsp", "bsp | async");
  auto ranks = cli.opt<std::uint64_t>("ranks", 4, "SPMD ranks");
  auto threads = cli.opt<std::uint64_t>("threads", 1, "compute threads per rank");
  auto min_score = cli.opt<std::int64_t>("min-score", 50, "alignment filter score");
  auto min_overlap = cli.opt<std::uint64_t>("min-overlap", 100, "alignment filter overlap");
  auto correct = cli.opt<std::uint64_t>("correct", 0, "1 = run consensus correction");
  cli.parse(argc, argv);

  GNB_THROW_IF(*engine != "bsp" && *engine != "async", "unknown engine " << *engine);
  Workload w;
  w.genome = *genome;
  w.genome_seed = *genome_seed;
  w.coverage = *coverage;
  w.mean_length = *mean_length;
  w.k = static_cast<std::uint32_t>(*k);
  w.async = *engine == "async";
  w.ranks = *ranks;
  w.threads = *threads;
  w.min_score = static_cast<std::int32_t>(*min_score);
  w.min_overlap = static_cast<std::uint32_t>(*min_overlap);
  w.correct = *correct != 0;

  Record("config")
      .count("nproc", std::thread::hardware_concurrency())
      .str("cpu_model", cpu_model())
      .count("avx2", align::cpu_supports_avx2() ? 1 : 0)
      .str("build_type", GNB_E2E_BUILD_TYPE)
      .str("batch_aligner",
           proto::to_string(align::resolve_batch_aligner(proto::BatchAlignerKind::kAuto)))
      .str("wire_codec", proto::to_string(proto::WireCompression::kAuto))
      .str("engine", *engine)
      .count("ranks", w.ranks)
      .count("threads", w.threads)
      .emit();

  // Inputs and truth (benchmark side; the pipeline never sees the truth).
  Truth truth;
  {
    Xoshiro256 genome_rng(w.genome_seed);
    wl::GenomeParams gp;
    gp.length = w.genome;
    truth.genome = wl::generate_genome(gp, genome_rng);
    Xoshiro256 rng(*seed);
    wl::ReadSimParams rp;
    rp.coverage = w.coverage;
    rp.error_rate = kErrorRate;
    rp.mean_length = w.mean_length;
    wl::SampledDataset dataset = wl::sample_reads(truth.genome, rp, rng);
    truth.origins = std::move(dataset.origins);
    truth.pairs = true_pairs(truth.origins, w.min_overlap);
    std::ofstream file(*fasta);
    GNB_THROW_IF(!file, "cannot open output: " << *fasta);
    seq::FastaWriter writer(file);
    for (const auto& read : dataset.reads.reads())
      writer.write(seq::FastaRecord{read.name, "", read.sequence});
  }

  // Set-up: parse the FASTA into a ReadStore, several times.
  seq::ReadStore reads;
  const auto set_up = [&](Record& rec) {
    for (std::uint64_t rep = 0; rep < kSetupReps; ++rep) {
      const auto t = Clock::now();
      reads = parse_fasta(*fasta);
      rec.num("setup_s." + std::to_string(rep), seconds_since(t));
    }
  };
  {
    Record setup("setup");
    set_up(setup);
    setup.count("reads", reads.size()).count("bases", reads.total_bases()).emit();
  }
  GNB_THROW_IF(reads.size() != truth.origins.size(), "FASTA round trip lost reads");

  const std::size_t stride =
      std::max<std::size_t>(1, (reads.size() + kIdentityReads - 1) / kIdentityReads);
  const double input_identity = mean_identity(
      truth, reads.size(), stride, [&](seq::ReadId id) -> const seq::Sequence& {
        return reads.get(id).sequence;
      });

  std::map<std::string, double> identities;
  const auto session = Clock::now();
  double last_plain = 0, last_traced = 0;
  for (std::uint64_t i = 0;; ++i) {
    const bool traced = *trace != 0 && i % 2 == 1;
    const double estimate = traced ? last_traced : last_plain;
    if (i >= kMinIterations && seconds_since(session) + estimate > *seconds) break;

    Record rec("iteration");
    rec.count("index", i).count("traced", traced ? 1 : 0);
    set_up(rec);
    const auto t = Clock::now();
    try {
      obs::Tracer& tracer = obs::Tracer::instance();
      if (traced) {
        tracer.enable(kTraceCapacity);
        obs::Tracer::bind(tracer.buffer(static_cast<std::uint32_t>(w.ranks), 0, "driver", "main"));
      }
      Outputs out;
      {
        obs::ScopedSpan span(kSpanIteration);
        out = run_pipeline(w, reads, rec);
      }
      if (traced) {
        obs::Tracer::bind(nullptr);
        std::ostringstream json;
        tracer.write_json(json);
        rec.count("trace.dropped_events", tracer.dropped());
        tracer.disable();
        analyse_trace(json.str(), w.ranks, rec);
      }
      (traced ? last_traced : last_plain) = seconds_since(t);
      check_outputs(w, truth, reads, out, input_identity, stride, identities, rec);
    } catch (const std::exception& e) {
      obs::Tracer::bind(nullptr);
      obs::Tracer::instance().disable();
      rec.str("error", e.what());
    }
    rec.num("peak_rss_mb", peak_rss_mb()).emit();
  }

  std::remove(fasta->c_str());
  return 0;
}
