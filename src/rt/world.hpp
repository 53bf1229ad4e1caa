#pragma once
// Threaded SPMD runtime: a World of P ranks running the same function, with
// MPI-style collectives over shared-memory mailboxes.
//
// This substitutes for MPI in the paper's bulk-synchronous code path (see
// DESIGN.md): alltoall/alltoallv have the same semantics (every rank
// contributes one buffer per destination; bytes are conserved; the call
// synchronizes), and the irregular exchange sizes are first-class. Ranks
// are std::jthread's, so the runtime is exercised with real concurrency in
// tests even though scaling *figures* come from the machine simulator.
//
// Membership is epoch-stamped and ranks can die (rt::FaultPlan crash
// events): a dying rank removes itself from the alive set, bumps the
// membership epoch, notifies every endpoint, and unwinds via RankDeath.
// Collectives synchronize through a membership-aware gate instead of a
// fixed-width std::barrier; whichever rank opens a gate stamps the (epoch,
// alive-set) pair under the gate lock and every rank leaving that gate
// copies the stamp, so all ranks exiting one collective hold an *identical*
// failure-detection snapshot — the agreement recovery decisions are built
// on (core::RecoveryContext). Contributions from dead ranks are zeroed out
// of reductions and exchanges using that same snapshot.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "rt/durable.hpp"
#include "rt/fault.hpp"
#include "rt/phase.hpp"
#include "rt/rpc.hpp"
#include "util/memory.hpp"

namespace gnb::rt {

using RankId = std::uint32_t;
using Bytes = std::vector<std::uint8_t>;

/// Thrown by a rank to unwind its SPMD body after it killed itself at a
/// scheduled crash point. World::run treats it as a clean (if abrupt) exit;
/// any other exception still aborts the world.
struct RankDeath {};

class World;

/// Per-rank handle passed to the SPMD body. All collective methods must be
/// called by every *alive* rank of the world, in the same order.
class Rank {
 public:
  Rank(World& world, RankId id);
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  [[nodiscard]] RankId id() const { return id_; }
  [[nodiscard]] std::size_t nranks() const;

  // --- collectives (each entry is a crash point and a straggle point) ---
  /// Synchronizing barrier; waiting time is charged to timers().sync.
  void barrier();

  /// Barrier that doubles as a membership *admission point*: when every
  /// arrival at this gate is an admitting one (SPMD discipline guarantees
  /// that — all alive ranks run the same call site) and a restarted rank is
  /// parked waiting with its skip budget spent, the gate opener re-admits
  /// it before stamping: alive again, epoch bumped, rejoin epoch recorded
  /// in the stamp every rank copies. Callers place this only at loop
  /// boundaries where a freshly-admitted rank can re-enter the protocol
  /// (the engines' recovery/exit loops, the assembly attempt loop).
  ///
  /// On a parked (restarted, not yet admitted) rank the same call is the
  /// admission *arrival*: it blocks until an admitting gate opens for it —
  /// returning true — or every active rank exits the phase and the comeback
  /// is abandoned — returning false, and the caller must unwind without
  /// touching another collective. On live ranks it always returns true.
  ///
  /// `phase` tags the admission point: a parked comeback is only re-admitted
  /// at a gate carrying its own phase tag. This keeps a rank that died in
  /// one protocol (say the alignment engine) from being admitted into the
  /// gate stream of a later one (the assembly attempt loop) whose survivors
  /// are executing a different collective sequence — a mismatched comeback
  /// waits on, and is abandoned at phase wind-down instead.
  [[nodiscard]] bool admitting_barrier(std::uint32_t phase = kAdmitAlign);

  /// Admission-point phase tags (see admitting_barrier).
  static constexpr std::uint32_t kAdmitAlign = 0;  // engine recovery/exit loops
  static constexpr std::uint32_t kAdmitGraph = 1;  // assembly attempt loop

  /// True from the moment this rank's thread is restarted after a scheduled
  /// death (restart@R:S): the body re-runs with empty volatile state and
  /// must branch to its rejoin path instead of re-running the phase.
  [[nodiscard]] bool rejoining() const { return incarnation_ > 0; }

  /// Sum / min / max reductions over one double per rank; dead ranks do not
  /// contribute.
  double allreduce_sum(double local);
  double allreduce_min(double local);
  double allreduce_max(double local);

  /// Gather one value from every rank (returned on all ranks); entries for
  /// dead ranks are zeroed.
  std::vector<double> allgather(double local);

  /// Irregular all-to-all byte exchange (MPI_Alltoallv analogue):
  /// `send[r]` goes to rank r; returns the buffers received, indexed by
  /// source (empty for dead sources). Charged to timers().comm.
  std::vector<Bytes> alltoallv(std::vector<Bytes> send);

  /// Regular all-to-all of one uint64 per peer (MPI_Alltoall analogue,
  /// used to exchange sizes ahead of an alltoallv). Entries from dead
  /// sources read as zero.
  std::vector<std::uint64_t> alltoall(const std::vector<std::uint64_t>& send);

  /// One-to-all broadcast of a byte buffer from `root` (MPI_Bcast).
  Bytes broadcast(Bytes buffer, RankId root);

  /// All-to-one gather of byte buffers onto `root` (MPI_Gatherv); other
  /// ranks receive an empty vector.
  std::vector<Bytes> gather(Bytes local, RankId root);

  /// Exclusive prefix sum over one value per rank (MPI_Exscan): rank r
  /// receives the sum of alive ranks [0, r). Rank 0 receives 0.
  double exscan_sum(double local);

  // --- asynchronous one-sided layer ---
  /// This rank's RPC endpoint (issue requests, poll progress).
  RpcEndpoint& rpc();

  /// Split-phase barrier, entry side: signals arrival without waiting.
  void split_barrier_arrive();
  /// Split-phase barrier, completion side: polls rpc progress while
  /// waiting for all alive ranks; waiting time is charged to timers().sync.
  void split_barrier_wait();

  /// Exit barrier for asynchronous phases: arrive, then keep serving RPC
  /// progress until every alive rank has arrived (the paper's "single exit
  /// barrier ensures the partitioned reads remain available to all
  /// parallel processors until all tasks are complete"). On completion,
  /// open detector suspicions of live peers close as false ones.
  void service_barrier();

  // --- failure detection ---
  /// Advance this rank's fault-step counter and die here if the fault plan
  /// says so. Collectives call this at entry; the async engine also calls
  /// it once per completed pull batch, so `crash@R:S` schedules reach into
  /// the middle of an asynchronous phase.
  void crash_point();

  /// The membership snapshot stamped at this rank's last collective: all
  /// ranks that exited the same collective hold the identical pair, so any
  /// decision derived from it is unanimous. Before the first collective:
  /// epoch 0, everyone alive.
  [[nodiscard]] std::uint64_t collective_epoch() const { return agreed_epoch_; }
  [[nodiscard]] const std::vector<char>& collective_alive() const { return agreed_alive_; }

  /// Per-rank rejoin epochs carried by the same stamp: entry r is the epoch
  /// at which rank r was last re-admitted (0 = never). Part of every gate
  /// stamp, so recovery decisions about a comeback are as unanimous as the
  /// ones about a death.
  [[nodiscard]] const std::vector<std::uint64_t>& collective_rejoin_epochs() const {
    return agreed_rejoin_;
  }

  /// The live membership epoch — cheap to poll between collectives. Newer
  /// than collective_epoch() when a death has not yet been agreed on.
  [[nodiscard]] std::uint64_t current_epoch() const;

  /// Best-effort current liveness of rank r (this rank's own view; other
  /// ranks may not agree yet — use collective_alive() for decisions that
  /// must be unanimous).
  [[nodiscard]] bool is_alive_now(RankId r) const;

  /// The world's stable-storage stand-in (phase manifests + completion
  /// logs that survive their writer's death).
  DurableStore& durable();

  // --- instrumentation ---
  PhaseTimers& timers() { return timers_; }
  MemoryMeter& memory() { return memory_; }
  /// Robustness counters this rank's engine protocol accumulates
  /// (duplicates dropped, checksum failures, recovery work);
  /// merged with the endpoint-level counters into the rank's
  /// stat::Breakdown.
  stat::FaultCounters& fault_counters() { return fault_counters_; }

  /// Intra-rank compute-layer counters (read-cache hits/misses, worker-pool
  /// throughput) the engines fill at their phase boundary; copied into the
  /// rank's stat::Breakdown and exported as cache.* / pool.* metrics by
  /// World::run, exactly like the fault counters.
  stat::ComputeCounters& compute_counters() { return compute_counters_; }

  /// This rank's metrics registry (single-writer, like the trace buffer):
  /// engines add named counters/gauges/histograms here; World::run merges
  /// every rank's registry — plus the fault and endpoint counters — into
  /// World::metrics() after the phase.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// The world's fault injector, or nullptr when chaos is disabled — the
  /// zero-cost-when-disabled hook engines branch on.
  [[nodiscard]] const FaultInjector* faults() const;

 private:
  friend class World;

  /// Straggler hook: pause deterministically at collective entry when the
  /// fault plan says this rank straggles here.
  void maybe_straggle();

  /// Reset this rank's volatile runtime identity for a comeback re-run:
  /// bump the incarnation (disarming the crash schedule — a rank restarts
  /// once), and drop the endpoint's in-flight state whose callbacks
  /// reference the dead incarnation's stack. Called by the rank's own
  /// thread between body runs, never concurrently with itself.
  void prepare_rejoin();

  World& world_;
  RankId id_;
  std::uint64_t split_phase_ = 0;  // split/service barriers completed locally
  std::uint64_t straggle_entry_ = 0;  // collective entries seen (straggle schedule index)
  std::uint64_t fault_step_ = 0;      // crash-schedule index (collectives + async batches)
  std::uint64_t incarnation_ = 0;     // body re-runs after a scheduled restart
  std::uint64_t agreed_epoch_ = 0;    // stamp copied at the last gate passage
  std::vector<char> agreed_alive_;    // stamp copied at the last gate passage
  std::vector<std::uint64_t> agreed_rejoin_;  // stamp copied at the last gate passage
  PhaseTimers timers_;
  MemoryMeter memory_;
  stat::FaultCounters fault_counters_;
  stat::ComputeCounters compute_counters_;
  obs::MetricsRegistry metrics_;
};

/// A group of P ranks. Construct, then run one or more SPMD regions.
class World {
 public:
  explicit World(std::size_t nranks);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] std::size_t nranks() const { return nranks_; }

  /// Run `body(rank)` on every rank concurrently; returns when all ranks
  /// finish or die. Membership, endpoints, and the durable store are reset
  /// per run. RankDeath unwinds are expected under a crash plan; any other
  /// exception aborts the world (a silently missing rank would deadlock).
  void run(const std::function<void(Rank&)>& body);

  /// Per-rank phase breakdowns from the last run().
  [[nodiscard]] const std::vector<stat::Breakdown>& breakdowns() const { return breakdowns_; }

  /// Merged metrics snapshot from the last run(): every rank's registry
  /// plus stat::export_metrics(fault counters) and the per-endpoint RPC
  /// counters, under the names in obs/spans.hpp.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Install a fault plan for subsequent run()s (chaos testing). A disabled
  /// plan clears injection. Events must name ranks < nranks, and corrupt
  /// events a record kind the DurableStore writes (manifest or log record);
  /// anything else throws gnb::Error. Must not be called while a run is in
  /// flight.
  void set_faults(const FaultPlan& plan);

  /// Heartbeat/lease for the per-endpoint failure detector, in progress()
  /// ticks (0 disables suspicion). Only consulted while an injector is
  /// installed; tests shrink it so a partition window reliably outlives it.
  void set_detector_lease(std::uint64_t ticks);

  /// The active injector (nullptr when faults are disabled).
  [[nodiscard]] const FaultInjector* faults() const { return injector_.get(); }

  /// The stable-storage stand-in shared by all ranks.
  [[nodiscard]] DurableStore& durable_store() { return durable_; }

 private:
  friend class Rank;

  /// Remove `id` from the alive set, bump the epoch, notify endpoints, and
  /// release the gate if the victim was the last straggler it was waiting
  /// for. Called by the dying rank itself at a crash point.
  void kill(RankId id);

  /// Membership-aware barrier: block until every alive rank arrived, then
  /// copy the (epoch, alive) stamp the gate opener took into `rank`.
  /// `admitting` marks this arrival as an admission point with phase tag
  /// `phase` (ignored otherwise).
  void gate_wait(Rank& rank, bool admitting = false, std::uint32_t phase = 0);
  /// Precondition: gate_mutex_ held. Admit eligible parked comebacks when
  /// every arrival was admitting, then stamp membership and wake waiters.
  void open_gate_locked();

  /// Park a restarted rank until an admitting gate tagged `phase` re-admits
  /// it (true) or the phase winds down without one (false).
  bool admission_wait(Rank& rank, std::uint32_t phase);
  /// A rank thread left the phase for good; abandon parked comebacks when
  /// no active rank remains to admit them.
  void thread_exited();
  /// Precondition: gate_mutex_ held. Wake every parked comeback empty-handed.
  void abandon_waiters_locked();

  std::size_t nranks_;
  // Mailboxes: slot (dst, src) for alltoallv payloads.
  std::vector<Bytes> mail_;
  std::vector<std::uint64_t> u64_slots_;
  std::vector<double> dbl_slots_;

  // Membership + gate state.
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  std::uint64_t gate_generation_ = 0;
  std::size_t gate_arrived_ = 0;
  std::vector<char> alive_;        // guarded by gate_mutex_
  std::size_t alive_count_ = 0;    // guarded by gate_mutex_
  std::uint64_t last_open_epoch_ = 0;       // stamp of the last gate opening
  std::vector<char> last_open_alive_;       // stamp of the last gate opening
  std::vector<std::uint64_t> rejoin_epochs_;   // per-rank last re-admission epoch
  std::vector<std::uint64_t> last_open_rejoin_;  // stamp of the last gate opening
  std::uint64_t last_open_split_ = 0;  // survivors' split count at the last admission
  std::atomic<std::uint64_t> epoch_{0};     // bumped once per death or admission

  // Admission state (guarded by gate_mutex_): parked comebacks, how many of
  // the current gate's arrivals are admission points, and how many threads
  // are still actively running a body (able to reach an admitting gate).
  struct Waiter {
    RankId rank = 0;
    std::uint32_t phase = 0;      // only gates with this tag may admit
    std::uint64_t skip_left = 0;  // admitting gate openings still to let pass
    bool admitted = false;
    bool abandoned = false;
  };
  std::vector<Waiter*> admission_waiters_;
  std::size_t admit_intent_ = 0;
  std::uint32_t admit_phase_ = 0;  // tag of the current gate's admitting arrivals
  std::size_t running_ = 0;

  // Split/service barrier state: per-rank arrival counters so waiters can
  // exclude ranks that die while the barrier is pending.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> split_done_;

  std::vector<std::unique_ptr<RpcEndpoint>> endpoints_;
  std::vector<stat::Breakdown> breakdowns_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<FaultInjector> injector_;
  DurableStore durable_;
};

}  // namespace gnb::rt
