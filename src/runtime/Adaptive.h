//===--- Adaptive.h - Contention-adaptive hybrid lock runtime ---*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contention-adaptive policy engine over the §5 lock runtime: the
/// inference picks lock granularity statically, and this engine corrects
/// it at runtime using the lock-contention profiler as the feedback
/// signal. On a low-frequency epoch tick it reads per-region and
/// per-section stat deltas and applies a two-rung policy ladder, each
/// rung guarded by hysteresis (K consecutive epochs over the threshold
/// to act, a cooldown after acting) so decisions never ping-pong:
///
///   1. Stripe escalation — fine-dominated regions under leaf pressure
///      swap their per-address leaves for a cache-line-padded stripe
///      table (stripe count sized by the observed contender bitmap);
///      regions whose traffic turns coarse swap back.
///   2. STM migration — migration domains (groups of sections closed
///      under potential data overlap) whose parked-wait/hold ratio
///      stays above threshold switch from the lock backend to the TL2
///      STM; repeated abort storms switch them back.
///
/// Safety at the acquireAll seam: rung 1 changes only *which* node a
/// fine request maps to — every node still admits queued requests in
/// FIFO order, the sorted top-down acquisition order of the hierarchy
/// is untouched, and layout swaps take the region node in X so every
/// holder drains first (a holder's region grant pins the layout it
/// read). Rung 2 crosses backends, so each migration domain has a
/// drain gate: sections enter through a per-thread inflight slot; a
/// backend flip marks the domain transitioning, executes a heavy
/// barrier (membarrier PRIVATE_EXPEDITED when available, a paired
/// seq_cst fence otherwise) against the entry protocol's
/// store-then-check, waits until no slot is inside the domain, and only
/// then publishes the new backend — so lock-mode and STM-mode
/// executions of overlapping sections never run concurrently.
///
/// Profiler cost: the engine arms the profiler for one epoch out of
/// ArmDutyTicks (backing off 4x once decisions go quiet), so adaptation
/// adds only the duty-cycled fraction of the armed-profiler overhead
/// plus the entry gate (two cache-local atomics per section).
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_RUNTIME_ADAPTIVE_H
#define LOCKIN_RUNTIME_ADAPTIVE_H

#include "runtime/LockRuntime.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lockin {
namespace rt {
namespace adaptive {

/// Which backend a migration domain currently executes sections on.
enum class Backend : uint8_t { Lock = 0, Stm = 1 };

/// PolicyEvent trace-instant codes (order mirrored by Trace.cpp).
enum class PolicyAction : uint8_t {
  Escalate = 0,
  Deescalate,
  MigrateStm,
  MigrateLock,
};

struct AdaptiveConfig {
  /// Wall-clock epoch tick thread period; 0 = no thread (use
  /// EveryNSections or manual tick()).
  unsigned EpochMs = 0;
  /// Count-based epochs: a thread calling maybeTick() attempts a tick
  /// after this many of its own sections; 0 disables.
  uint32_t EveryNSections = 0;

  /// Arm the profiler 1 epoch in ArmDutyTicks (1 = always armed, the
  /// deterministic-test setting); after StableTicksToBackoff policy
  /// reads without a transition, the duty interval widens 4x. Backoff
  /// is deliberately eager — the ReArmSlowEvents alarm below restores
  /// full sampling the moment anything actually waits, so a stable
  /// workload should stop paying for armed epochs quickly.
  unsigned ArmDutyTicks = 4;
  unsigned StableTicksToBackoff = 4;
  /// Contention alarm: this many slow events (parked acquisitions or
  /// STM aborts) within one dormant tick re-arm the profiler at once,
  /// resetting the stability backoff — the duty cycle only saves money
  /// while nothing is waiting. 0 disables the alarm.
  uint64_t ReArmSlowEvents = 8;

  // Rung 1: stripe escalation (per region).
  uint32_t EscalateLeafPressure = 2048; ///< distinct leaves under region
  double EscalateFineFrac = 0.80;       ///< IS+IX share of region grants
  double DeescalateFineFrac = 0.50;     ///< coarse traffic took over
  unsigned EscalateEpochs = 2;
  unsigned DeescalateEpochs = 2;
  unsigned MinStripes = 8;
  unsigned MaxStripes = 64;

  // Rung 2: STM migration (per domain). The ratio line is deliberately
  // high: with the profiler duty-cycled, one policy read's deltas span
  // the whole dormant window, so a few sporadic preemption parks can
  // reach wait ~ 3x hold on an oversubscribed box — only a standing
  // convoy (waiters parked on most acquisitions, wait/hold in the
  // hundreds) should clear this bar.
  double StmWaitHoldRatio = 6.0;  ///< parked-wait / hold, sustained
  uint64_t StmMinWaitNs = 200'000; ///< per epoch, below = not contended
  unsigned StmEpochs = 2;
  double StmAbortRatio = 0.5;     ///< aborts/(commits+aborts) storm line
  uint64_t StmMinAttempts = 16;   ///< per epoch, below = no verdict
  unsigned StmFallbackEpochs = 2;

  /// Ticks a region/domain sits out after any transition.
  unsigned TransitionCooldownTicks = 8;

  /// Stress mode for the differential fuzzer: ignore the policy and
  /// flip every domain's backend every tick, exercising the drain gate
  /// and mid-run migration on every program.
  bool ForceFlip = false;
};

/// The per-section policy engine. One instance per LockRuntime; worker
/// threads register once, then bracket every outermost section with
/// enterSection/exitSection. Policy runs on tick(), driven by the
/// wall-clock epoch thread (start()), by count-based maybeTick(), or
/// manually (tests).
class AdaptiveEngine {
  struct InflightSlot; // per-thread inflight slot (defined below)

public:
  /// A resolved (thread slot, migration domain) pair for the section
  /// protocol: pins the slot and backend-word addresses at bind time so
  /// steady-state loops — one domain per worker, the common shape — pay
  /// no pointer chasing per section, just two cache-local stores and
  /// one shared acquire load. Valid until unregisterThread on the slot.
  class Gate {
    friend class AdaptiveEngine;
    InflightSlot *S = nullptr;
    std::atomic<uint32_t> *W = nullptr;
    uint32_t DomainPlus1 = 0;
    uint32_t EveryN = 0; ///< cached Config.EveryNSections
    Gate(InflightSlot *S, std::atomic<uint32_t> *W, uint32_t DomainPlus1,
         uint32_t EveryN)
        : S(S), W(W), DomainPlus1(DomainPlus1), EveryN(EveryN) {}

  public:
    Gate() = default;
  };

  explicit AdaptiveEngine(LockRuntime &RT, AdaptiveConfig Config = {});
  ~AdaptiveEngine();

  AdaptiveEngine(const AdaptiveEngine &) = delete;
  AdaptiveEngine &operator=(const AdaptiveEngine &) = delete;

  // -- setup (single-threaded, before sections run) --

  /// Creates a migration domain; sections bound to it flip backends
  /// together. Domains must be closed under potential data overlap
  /// (the caller's responsibility; the interpreter merges by region
  /// components, conservatively).
  uint32_t addDomain();
  /// Associates a profiler section tag with a domain: the tag's
  /// wait/hold sums feed the domain's migration decision.
  void bindSection(uint32_t Domain, uint32_t SectionTag);
  /// Launches the wall-clock epoch thread (EpochMs > 0).
  void start();

  // -- per-thread section protocol --

  /// Claims an inflight slot for the calling thread. Slots are a
  /// bounded resource (one per live thread); release with
  /// unregisterThread.
  uint32_t registerThread();
  void unregisterThread(uint32_t Slot);

  /// Resolves the section protocol's addresses once for a
  /// (slot, domain) pair; enter/exit through the gate skip the
  /// per-section Slots/Domains indexing.
  Gate gate(uint32_t Slot, uint32_t Domain) {
    return Gate(&Slots[Slot], &Domains[Domain]->Word, Domain + 1,
                Config.EveryNSections);
  }

  /// Enters a section through \p G: publishes the inflight slot, then
  /// reads the domain's backend (spinning out transitions). The
  /// returned backend is stable until exit.
  Backend enter(Gate &G) {
    for (;;) {
      G.S->V.store(G.DomainPlus1, std::memory_order_relaxed);
      gateFastBarrier();
      uint32_t Mode = G.W->load(std::memory_order_acquire);
      if (__builtin_expect(!(Mode & kTransitioningBit), 1))
        return static_cast<Backend>(Mode & 1);
      G.S->V.store(0, std::memory_order_release);
      while (G.W->load(std::memory_order_acquire) & kTransitioningBit)
        std::this_thread::yield();
    }
  }
  void exit(Gate &G) { G.S->V.store(0, std::memory_order_release); }

  /// Index-addressed convenience forms (tests, callers whose domain
  /// varies section to section, e.g. the interpreter).
  Backend enterSection(uint32_t Slot, uint32_t Domain) {
    Gate G = gate(Slot, Domain);
    return enter(G);
  }
  void exitSection(uint32_t Slot) {
    Slots[Slot].V.store(0, std::memory_order_release);
  }

  /// Records one STM section execution for \p Domain (commits are 0/1,
  /// aborts the retry count) — the abort-storm fallback signal.
  void noteStm(uint32_t Domain, uint64_t Commits, uint64_t Aborts) {
    DomainState &D = *Domains[Domain];
    D.Commits.fetch_add(Commits, std::memory_order_relaxed);
    D.Aborts.fetch_add(Aborts, std::memory_order_relaxed);
  }

  /// Count-based epoch driver: cheap per-slot counter; every
  /// EveryNSections of the calling thread's sections, one thread runs a
  /// tick. Call while holding no locks (section entry).
  void maybeTick(uint32_t Slot) {
    if (!Config.EveryNSections)
      return;
    if (++Slots[Slot].LocalSections < Config.EveryNSections)
      return;
    Slots[Slot].LocalSections = 0;
    tick();
  }
  /// Gate form of maybeTick; same contract (call holding no locks,
  /// outside the enter/exit bracket — a tick may drain this slot).
  void maybeTick(Gate &G) {
    if (!G.EveryN)
      return;
    if (__builtin_expect(++G.S->LocalSections < G.EveryN, 1))
      return;
    G.S->LocalSections = 0;
    tick();
  }

  // -- policy --

  /// One policy epoch: arms/reads the profiler per the duty cycle and
  /// applies the ladder. Serialized internally; safe from any thread
  /// holding no locks.
  void tick();

  Backend domainBackend(uint32_t Domain) const {
    return static_cast<Backend>(
        Domains[Domain]->Word.load(std::memory_order_acquire) & 1);
  }
  uint32_t numDomains() const {
    return static_cast<uint32_t>(Domains.size());
  }
  uint64_t epochCount() const {
    return TickCount.load(std::memory_order_relaxed);
  }

  /// Directly flips a domain through the drain gate (tests, bench
  /// warm-start). Blocks until the flip completes.
  void forceBackend(uint32_t Domain, Backend B);

  /// Human-readable policy state (";"-prefixed lines).
  std::string renderPolicy() const;

  const AdaptiveConfig &config() const { return Config; }

private:
  static constexpr uint32_t kTransitioningBit = 2;
  static constexpr uint32_t kMaxSlots = 512;

  struct alignas(64) InflightSlot {
    /// 0 = outside any gated section; Domain+1 while inside.
    std::atomic<uint32_t> V{0};
    /// Owner-thread section counter for count-based ticks.
    uint32_t LocalSections = 0;
  };

  struct DomainState {
    /// bit 0 = backend, bit 1 = transitioning.
    std::atomic<uint32_t> Word{0};
    std::atomic<uint64_t> Commits{0};
    std::atomic<uint64_t> Aborts{0};
    std::vector<uint32_t> Tags; ///< profiler section tags feeding stats
    // Policy state (touched only under PolicyMu).
    uint64_t SnapWaitNs = 0, SnapHoldNs = 0;
    uint64_t SnapCommits = 0, SnapAborts = 0;
    unsigned StmStreak = 0, FallbackStreak = 0, Cooldown = 0;
  };

  struct RegionState {
    /// Region-node grant counts at the last read: intention grants
    /// (IS + IX) are fine traffic, full grants (S + SIX + X) coarse.
    uint64_t SnapFine = 0, SnapCoarse = 0;
    unsigned EscStreak = 0, DeescStreak = 0, Cooldown = 0;
    uint64_t ContenderBits = 0; ///< OR of leaf masks, refreshed per read
  };

  /// Fast-side half of the asymmetric gate fence: compiler-only when
  /// the flip side runs membarrier, a real seq_cst fence otherwise.
  static void gateFastBarrier() {
    if (useMembarrier())
      std::atomic_signal_fence(std::memory_order_seq_cst);
    else
      std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  static bool useMembarrier();
  static void gateHeavyBarrier();

  /// Parks + STM aborts: the signals that stay live while the profiler
  /// is dormant, feeding the ReArmSlowEvents alarm.
  uint64_t slowEvents() const {
    uint64_t N = RT.parkEvents();
    for (const auto &D : Domains)
      N += D->Aborts.load(std::memory_order_relaxed);
    return N;
  }

  void flipDomain(uint32_t Domain, Backend To);
  /// Returns true when any transition fired (resets the stability
  /// backoff).
  bool runPolicy();
  void snapshot();
  /// Reads and clears every node's contender bitmap into its region's
  /// ContenderBits.
  void collectContenders();
  void policyTrace(PolicyAction A, uint64_t Target);

  LockRuntime &RT;
  AdaptiveConfig Config;

  std::unique_ptr<InflightSlot[]> Slots;
  std::atomic<uint32_t> SlotHighWater{0};
  std::mutex SlotMu;
  std::vector<uint32_t> FreeSlots;

  std::vector<std::unique_ptr<DomainState>> Domains;

  // Policy state, serialized by PolicyMu.
  mutable std::mutex PolicyMu;
  std::vector<RegionState> RegionStates;
  bool HaveSnapshot = false;
  bool ArmedThisTick = false; ///< duty cycle: profiler armed, read next
  bool ProfInitiallyOn = false;
  unsigned StableReads = 0;
  unsigned DormantTicks = 0;
  uint64_t LastSlowEvents = 0; ///< parks + aborts at the previous tick
  std::atomic<uint64_t> TickCount{0};

  // Metrics (resolved once from the runtime's registry).
  obs::Counter *MEpochs = nullptr;
  obs::Counter *MEscalations = nullptr;
  obs::Counter *MDeescalations = nullptr;
  obs::Counter *MStmMigrations = nullptr;
  obs::Counter *MStmFallbacks = nullptr;

  // Epoch thread.
  std::thread EpochThread;
  std::mutex StopMu;
  std::condition_variable StopCv;
  bool StopFlag = false;
};

} // namespace adaptive
} // namespace rt
} // namespace lockin

#endif // LOCKIN_RUNTIME_ADAPTIVE_H
