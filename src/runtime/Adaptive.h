//===--- Adaptive.h - Contention-adaptive lock runtime ----------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contention-adaptive policy engine over the §5 lock runtime: the
/// inference picks lock granularity statically, and this engine corrects
/// it at runtime using the lock-contention profiler as the feedback
/// signal. On a low-frequency epoch tick it reads per-region stat deltas
/// and applies stripe escalation, guarded by hysteresis (K consecutive
/// epochs over the threshold to act, a cooldown after acting) so
/// decisions never ping-pong: fine-dominated regions under leaf pressure
/// swap their per-address leaves for a cache-line-padded stripe table
/// (stripe count sized by the observed contender bitmap); regions whose
/// traffic turns coarse swap back.
///
/// Safety at the acquireAll seam: escalation changes only *which* node a
/// fine request maps to — the sorted top-down acquisition order of the
/// hierarchy is untouched, and layout swaps take the region node in X so
/// every holder drains first (a holder's region grant pins the layout it
/// read).
///
/// Profiler cost: the engine arms the profiler for one epoch out of
/// ArmDutyTicks (backing off 4x once decisions go quiet), so adaptation
/// adds only the duty-cycled fraction of the armed-profiler overhead
/// plus one per-thread counter bump per section.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_RUNTIME_ADAPTIVE_H
#define LOCKIN_RUNTIME_ADAPTIVE_H

#include "runtime/LockRuntime.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace lockin {
namespace rt {
namespace adaptive {

/// PolicyEvent trace-instant codes (order mirrored by Trace.cpp).
enum class PolicyAction : uint8_t {
  Escalate = 0,
  Deescalate,
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
  /// Contention alarm: this many parked acquisitions within one dormant
  /// tick re-arm the profiler at once, resetting the stability backoff —
  /// the duty cycle only saves money while nothing is waiting. 0
  /// disables the alarm.
  uint64_t ReArmSlowEvents = 8;

  // Stripe escalation (per region).
  uint32_t EscalateLeafPressure = 2048; ///< distinct leaves under region
  double EscalateFineFrac = 0.80;       ///< IS+IX share of region grants
  double DeescalateFineFrac = 0.50;     ///< coarse traffic took over
  unsigned EscalateEpochs = 2;
  unsigned DeescalateEpochs = 2;
  unsigned MinStripes = 8;
  unsigned MaxStripes = 64;

  /// Ticks a region sits out after any transition.
  unsigned TransitionCooldownTicks = 8;
};

/// The policy engine. One instance per LockRuntime. Policy runs on
/// tick(), driven by the wall-clock epoch thread (start()), by
/// count-based maybeTick() at section entry, or manually (tests).
class AdaptiveEngine {
public:
  explicit AdaptiveEngine(LockRuntime &RT, AdaptiveConfig Config = {});
  ~AdaptiveEngine();

  AdaptiveEngine(const AdaptiveEngine &) = delete;
  AdaptiveEngine &operator=(const AdaptiveEngine &) = delete;

  /// Launches the wall-clock epoch thread (EpochMs > 0).
  void start();

  /// Count-based epoch driver: \p Sections is the calling thread's own
  /// section counter; every EveryNSections of them, the thread runs a
  /// tick. Call while holding no locks (section entry): a tick may swap
  /// a region's layout, which takes the region node in X.
  void maybeTick(uint32_t &Sections) {
    if (!Config.EveryNSections || ++Sections < Config.EveryNSections)
      return;
    Sections = 0;
    tick();
  }

  /// One policy epoch: arms/reads the profiler per the duty cycle and
  /// applies stripe escalation. Serialized internally; safe from any
  /// thread holding no locks.
  void tick();

private:
  struct RegionState {
    /// Region-node grant counts at the last read: intention grants
    /// (IS + IX) are fine traffic, full grants (S + SIX + X) coarse.
    uint64_t SnapFine = 0, SnapCoarse = 0;
    unsigned EscStreak = 0, DeescStreak = 0, Cooldown = 0;
    uint64_t ContenderBits = 0; ///< OR of leaf masks, refreshed per read
  };

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

  // Policy state, serialized by PolicyMu.
  std::mutex PolicyMu;
  std::vector<RegionState> RegionStates;
  bool HaveSnapshot = false;
  bool ArmedThisTick = false; ///< duty cycle: profiler armed, read next
  bool ProfInitiallyOn = false;
  unsigned StableReads = 0;
  unsigned DormantTicks = 0;
  uint64_t LastSlowEvents = 0; ///< parks at the previous tick

  // Metrics (resolved once from the runtime's registry).
  obs::Counter *MEpochs = nullptr;
  obs::Counter *MEscalations = nullptr;
  obs::Counter *MDeescalations = nullptr;

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
