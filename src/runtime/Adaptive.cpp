//===--- Adaptive.cpp - Contention-adaptive lock runtime -----------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "runtime/Adaptive.h"

#include "obs/Log.h"
#include "obs/Obs.h"

#include <algorithm>
#include <bit>
#include <chrono>

using namespace lockin;
using namespace lockin::rt;
using namespace lockin::rt::adaptive;

//===----------------------------------------------------------------------===//
// Construction / epoch thread
//===----------------------------------------------------------------------===//

AdaptiveEngine::AdaptiveEngine(LockRuntime &RT, AdaptiveConfig Config)
    : RT(RT), Config(Config) {
  ProfInitiallyOn = RT.profiler().enabled();
  obs::MetricsRegistry &Reg = RT.registry();
  MEpochs = &Reg.counter("adaptive.epochs");
  MEscalations = &Reg.counter("adaptive.region_escalations");
  MDeescalations = &Reg.counter("adaptive.region_deescalations");
  RegionStates.resize(RT.numRegions());
}

AdaptiveEngine::~AdaptiveEngine() {
  {
    std::lock_guard<std::mutex> Lock(StopMu);
    StopFlag = true;
  }
  StopCv.notify_all();
  if (EpochThread.joinable())
    EpochThread.join();
  // The engine duty-cycles the profiler only when it owned the arming
  // decision; a user-armed profiler is left exactly as found.
  if (!ProfInitiallyOn)
    RT.profiler().setEnabled(false);
}

void AdaptiveEngine::start() {
  if (Config.EpochMs == 0 || EpochThread.joinable())
    return;
  EpochThread = std::thread([this] {
    std::unique_lock<std::mutex> Lock(StopMu);
    while (!StopFlag) {
      if (StopCv.wait_for(Lock, std::chrono::milliseconds(Config.EpochMs),
                          [this] { return StopFlag; }))
        break;
      Lock.unlock();
      tick();
      Lock.lock();
    }
  });
}

//===----------------------------------------------------------------------===//
// Policy epochs
//===----------------------------------------------------------------------===//

void AdaptiveEngine::policyTrace(PolicyAction A, uint64_t Target) {
  obs::tracer().span(obs::EventKind::PolicyEvent, obs::nowNs(), 0, Target, 0,
                     static_cast<uint8_t>(A));
  // Mirror every policy decision into the structured log so a daemon's
  // adaptive-runtime behaviour lands in the same stream as its request
  // telemetry (the trace ring only surfaces on --trace-out).
  static const char *const Names[] = {"escalate", "deescalate"};
  obs::log()
      .event(obs::LogLevel::Info, "adaptive.policy")
      .str("action", Names[static_cast<uint8_t>(A)])
      .num("target", Target);
}

namespace {

/// Grants sampled at a region node so far: intention grants (IS + IX)
/// are fine traffic, full grants (S + SIX + X) coarse.
struct GrantMix {
  uint64_t Fine = 0, Coarse = 0;
};

GrantMix grantMix(obs::LockProfiler &P, const LockNode &Region) {
  if (!Region.ObsId)
    return {};
  obs::NodeSlot &S = P.nodeSlot(Region.ObsId);
  return {S.ModeCounts[0].value() + S.ModeCounts[1].value(),
          S.ModeCounts[2].value() + S.ModeCounts[3].value() +
              S.ModeCounts[4].value()};
}

} // namespace

void AdaptiveEngine::collectContenders() {
  obs::LockProfiler &P = RT.profiler();
  for (RegionState &RS : RegionStates)
    RS.ContenderBits = 0;
  RT.forEachNode([&](LockNode &N, const obs::LockNodeInfo &Info) {
    if (!N.ObsId || Info.K == obs::LockNodeInfo::Kind::Root ||
        Info.Region >= RegionStates.size())
      return;
    std::atomic<uint64_t> &Mask = P.nodeSlot(N.ObsId).ContenderMask;
    // Most nodes saw no queued waiter: a load keeps their lines shared.
    if (Mask.load(std::memory_order_relaxed))
      RegionStates[Info.Region].ContenderBits |=
          Mask.exchange(0, std::memory_order_relaxed);
  });
}

void AdaptiveEngine::snapshot() {
  obs::LockProfiler &P = RT.profiler();
  for (uint32_t R = 0; R < RegionStates.size(); ++R) {
    GrantMix G = grantMix(P, RT.regionNode(R));
    RegionStates[R].SnapFine = G.Fine;
    RegionStates[R].SnapCoarse = G.Coarse;
  }
  // Start the contender bitmap window at the arm point.
  collectContenders();
}

bool AdaptiveEngine::runPolicy() {
  obs::LockProfiler &P = RT.profiler();
  bool AnyTransition = false;

  collectContenders();

  for (uint32_t R = 0; R < RegionStates.size(); ++R) {
    RegionState &RS = RegionStates[R];
    GrantMix G = grantMix(P, RT.regionNode(R));
    uint64_t DFine = G.Fine - RS.SnapFine;
    uint64_t Total = DFine + (G.Coarse - RS.SnapCoarse);
    RS.SnapFine = G.Fine;
    RS.SnapCoarse = G.Coarse;
    if (RS.Cooldown) {
      --RS.Cooldown;
      continue;
    }
    double FineFrac =
        Total ? static_cast<double>(DFine) / static_cast<double>(Total) : 0.0;
    if (!RT.regionLayout(R)) {
      RS.DeescStreak = 0;
      if (Total && FineFrac >= Config.EscalateFineFrac &&
          RT.regionLeafCount(R) >= Config.EscalateLeafPressure)
        ++RS.EscStreak;
      else
        RS.EscStreak = 0;
      if (RS.EscStreak >= Config.EscalateEpochs) {
        unsigned Contenders =
            static_cast<unsigned>(std::popcount(RS.ContenderBits));
        unsigned Want = std::max(Config.MinStripes, Contenders * 4);
        Want = std::min(Want, Config.MaxStripes);
        if (RT.escalateRegion(R, Want)) {
          MEscalations->inc();
          policyTrace(PolicyAction::Escalate, R);
          AnyTransition = true;
        }
        RS.EscStreak = 0;
        RS.Cooldown = Config.TransitionCooldownTicks;
      }
    } else {
      RS.EscStreak = 0;
      if (Total && FineFrac <= Config.DeescalateFineFrac)
        ++RS.DeescStreak;
      else
        RS.DeescStreak = 0;
      if (RS.DeescStreak >= Config.DeescalateEpochs) {
        if (RT.deescalateRegion(R)) {
          MDeescalations->inc();
          policyTrace(PolicyAction::Deescalate, R);
          AnyTransition = true;
        }
        RS.DeescStreak = 0;
        RS.Cooldown = Config.TransitionCooldownTicks;
      }
    }
  }
  return AnyTransition;
}

void AdaptiveEngine::tick() {
  // One tick at a time; concurrent callers simply skip (count-based
  // callers retry after another EveryNSections of their own sections).
  std::unique_lock<std::mutex> Lock(PolicyMu, std::try_to_lock);
  if (!Lock.owns_lock())
    return;
  MEpochs->inc();

  obs::LockProfiler &P = RT.profiler();
  if (ProfInitiallyOn || Config.ArmDutyTicks <= 1) {
    // Always armed: every tick reads a full epoch's deltas.
    if (!P.enabled())
      P.setEnabled(true);
    if (!HaveSnapshot) {
      snapshot();
      HaveSnapshot = true;
      return;
    }
    StableReads = runPolicy() ? 0 : StableReads + 1;
    return;
  }

  if (ArmedThisTick) {
    // The profiler has been armed since the previous tick: read the
    // epoch's deltas, act, disarm.
    StableReads = runPolicy() ? 0 : StableReads + 1;
    P.setEnabled(false);
    ArmedThisTick = false;
    LastSlowEvents = RT.parkEvents();
    return;
  }
  // Contention alarm: the park counter runs even while the profiler
  // sleeps. A burst during a dormant tick means the workload shifted
  // under a backed-off duty cycle — re-arm now rather than staying blind
  // for up to 64 x ArmDutyTicks ticks.
  if (Config.ReArmSlowEvents) {
    uint64_t Slow = RT.parkEvents();
    uint64_t DSlow = Slow - LastSlowEvents;
    LastSlowEvents = Slow;
    if (DSlow >= Config.ReArmSlowEvents) {
      StableReads = 0;
      DormantTicks = 0;
      P.setEnabled(true);
      snapshot();
      HaveSnapshot = true;
      ArmedThisTick = true;
      return;
    }
  }
  // Decisions gone quiet widen the duty interval 4x per stability
  // window, capped at 64x: a converged policy pays an armed epoch (and
  // its node walk) a vanishing fraction of the time, and any transition
  // resets StableReads so the next anomaly is re-sampled at full rate
  // within one widened interval.
  unsigned Duty = Config.ArmDutyTicks;
  for (unsigned Step = 0,
                Steps = std::min(3u, Config.StableTicksToBackoff
                                         ? StableReads /
                                               Config.StableTicksToBackoff
                                         : 0);
       Step < Steps; ++Step)
    Duty *= 4;
  if (++DormantTicks + 1 >= Duty) {
    DormantTicks = 0;
    P.setEnabled(true);
    snapshot();
    HaveSnapshot = true;
    ArmedThisTick = true;
  }
}
