//===--- Adaptive.cpp - Contention-adaptive hybrid lock runtime ----------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "runtime/Adaptive.h"

#include "obs/Log.h"
#include "obs/Obs.h"

#include <bit>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

using namespace lockin;
using namespace lockin::rt;
using namespace lockin::rt::adaptive;

//===----------------------------------------------------------------------===//
// Gate barriers
//===----------------------------------------------------------------------===//

namespace {

// linux/membarrier.h command values (spelled out so the build does not
// depend on kernel headers being present).
constexpr int kMembarrierCmdQuery = 0;
constexpr int kMembarrierCmdPrivateExpedited = 1 << 3;
constexpr int kMembarrierCmdRegisterPrivateExpedited = 1 << 4;

bool detectMembarrier() {
#if defined(__linux__) && defined(SYS_membarrier)
  long Supported = syscall(SYS_membarrier, kMembarrierCmdQuery, 0, 0);
  if (Supported < 0 || !(Supported & kMembarrierCmdPrivateExpedited))
    return false;
  if (syscall(SYS_membarrier, kMembarrierCmdRegisterPrivateExpedited, 0, 0) <
      0)
    return false;
  return true;
#else
  return false;
#endif
}

} // namespace

bool AdaptiveEngine::useMembarrier() {
  // First call registers PRIVATE_EXPEDITED for the process; the engine
  // constructor forces that before any thread reaches the gate.
  static const bool Use = detectMembarrier();
  return Use;
}

void AdaptiveEngine::gateHeavyBarrier() {
#if defined(__linux__) && defined(SYS_membarrier)
  if (useMembarrier()) {
    syscall(SYS_membarrier, kMembarrierCmdPrivateExpedited, 0, 0);
    return;
  }
#endif
  // Fallback Dekker: the fast side runs a real seq_cst fence between its
  // slot store and backend load (gateFastBarrier), pairing with this one.
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

//===----------------------------------------------------------------------===//
// Construction / threads / domains
//===----------------------------------------------------------------------===//

AdaptiveEngine::AdaptiveEngine(LockRuntime &RT, AdaptiveConfig Config)
    : RT(RT), Config(Config), Slots(new InflightSlot[kMaxSlots]) {
  ProfInitiallyOn = RT.profiler().enabled();
  (void)useMembarrier();
  obs::MetricsRegistry &Reg = RT.registry();
  MEpochs = &Reg.counter("adaptive.epochs");
  MEscalations = &Reg.counter("adaptive.region_escalations");
  MDeescalations = &Reg.counter("adaptive.region_deescalations");
  MStmMigrations = &Reg.counter("adaptive.stm_migrations");
  MStmFallbacks = &Reg.counter("adaptive.stm_fallbacks");
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

uint32_t AdaptiveEngine::addDomain() {
  Domains.push_back(std::make_unique<DomainState>());
  return static_cast<uint32_t>(Domains.size() - 1);
}

void AdaptiveEngine::bindSection(uint32_t Domain, uint32_t SectionTag) {
  Domains[Domain]->Tags.push_back(SectionTag);
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

uint32_t AdaptiveEngine::registerThread() {
  std::lock_guard<std::mutex> Lock(SlotMu);
  if (!FreeSlots.empty()) {
    uint32_t S = FreeSlots.back();
    FreeSlots.pop_back();
    return S;
  }
  uint32_t S = SlotHighWater.load(std::memory_order_relaxed);
  assert(S < kMaxSlots && "more live threads than inflight slots");
  SlotHighWater.store(S + 1, std::memory_order_release);
  return S;
}

void AdaptiveEngine::unregisterThread(uint32_t Slot) {
  Slots[Slot].V.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(SlotMu);
  Slots[Slot].LocalSections = 0;
  FreeSlots.push_back(Slot);
}

//===----------------------------------------------------------------------===//
// Backend flips
//===----------------------------------------------------------------------===//

void AdaptiveEngine::flipDomain(uint32_t Domain, Backend To) {
  DomainState &D = *Domains[Domain];
  uint32_t Cur = D.Word.load(std::memory_order_relaxed);
  if ((Cur & 1u) == static_cast<uint32_t>(To))
    return;
  // 1. Announce the transition; new entrants now bounce off the gate.
  D.Word.fetch_or(kTransitioningBit, std::memory_order_seq_cst);
  // 2. Heavy half of the asymmetric Dekker against the entry protocol's
  //    slot-store → backend-load: after this, every thread has either
  //    seen the transitioning bit (and backed off) or its inflight slot
  //    store is visible to the scan below.
  gateHeavyBarrier();
  // 3. Drain: wait until no thread is inside a section of this domain.
  //    Sections always exit (locks are released at section end), so this
  //    terminates. The acquire loads pair with each exiting thread's
  //    release store, carrying its section's memory effects into the
  //    flip — and the release publish below carries them into the first
  //    entrant on the new backend.
  uint32_t N = SlotHighWater.load(std::memory_order_acquire);
  for (uint32_t I = 0; I < N; ++I)
    while (Slots[I].V.load(std::memory_order_acquire) == Domain + 1)
      std::this_thread::yield();
  // 4. Publish the new backend and lift the gate.
  D.Word.store(static_cast<uint32_t>(To), std::memory_order_release);
}

void AdaptiveEngine::forceBackend(uint32_t Domain, Backend B) {
  // Callers must hold no locks and be outside any gated section.
  std::lock_guard<std::mutex> Lock(PolicyMu);
  flipDomain(Domain, B);
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
  static const char *const Names[] = {"escalate", "deescalate",
                                      "migrate-stm", "migrate-lock"};
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
  for (auto &DPtr : Domains) {
    DomainState &D = *DPtr;
    uint64_t Wait = 0, Hold = 0;
    for (uint32_t Tag : D.Tags) {
      obs::SectionSlot &SS = P.sectionSlot(Tag);
      Wait += SS.WaitNs.value();
      Hold += SS.HoldNs.value();
    }
    D.SnapWaitNs = Wait;
    D.SnapHoldNs = Hold;
    D.SnapCommits = D.Commits.load(std::memory_order_relaxed);
    D.SnapAborts = D.Aborts.load(std::memory_order_relaxed);
  }
}

bool AdaptiveEngine::runPolicy() {
  obs::LockProfiler &P = RT.profiler();
  bool AnyTransition = false;

  collectContenders();

  // --- rung 1: stripe escalation, per region ---
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

  // --- rung 2: STM migration, per domain ---
  for (uint32_t DI = 0; DI < Domains.size(); ++DI) {
    DomainState &D = *Domains[DI];
    uint64_t Wait = 0, Hold = 0;
    for (uint32_t Tag : D.Tags) {
      obs::SectionSlot &SS = P.sectionSlot(Tag);
      Wait += SS.WaitNs.value();
      Hold += SS.HoldNs.value();
    }
    uint64_t DWait = Wait - D.SnapWaitNs;
    uint64_t DHold = Hold - D.SnapHoldNs;
    D.SnapWaitNs = Wait;
    D.SnapHoldNs = Hold;
    uint64_t Commits = D.Commits.load(std::memory_order_relaxed);
    uint64_t Aborts = D.Aborts.load(std::memory_order_relaxed);
    uint64_t DCommits = Commits - D.SnapCommits;
    uint64_t DAborts = Aborts - D.SnapAborts;
    D.SnapCommits = Commits;
    D.SnapAborts = Aborts;

    if (D.Cooldown) {
      --D.Cooldown;
      continue;
    }
    if (domainBackend(DI) == Backend::Lock) {
      D.FallbackStreak = 0;
      // Sustained parking that dwarfs useful hold time: the hierarchy is
      // the bottleneck, optimistic execution should win.
      if (DWait >= Config.StmMinWaitNs &&
          static_cast<double>(DWait) >=
              Config.StmWaitHoldRatio * static_cast<double>(DHold ? DHold : 1))
        ++D.StmStreak;
      else
        D.StmStreak = 0;
      if (D.StmStreak >= Config.StmEpochs) {
        flipDomain(DI, Backend::Stm);
        D.StmStreak = 0;
        D.Cooldown = Config.TransitionCooldownTicks;
        MStmMigrations->inc();
        policyTrace(PolicyAction::MigrateStm, DI);
        AnyTransition = true;
      }
    } else {
      D.StmStreak = 0;
      uint64_t Attempts = DCommits + DAborts;
      if (Attempts >= Config.StmMinAttempts &&
          static_cast<double>(DAborts) >
              Config.StmAbortRatio * static_cast<double>(Attempts))
        ++D.FallbackStreak;
      else
        D.FallbackStreak = 0;
      if (D.FallbackStreak >= Config.StmFallbackEpochs) {
        flipDomain(DI, Backend::Lock);
        D.FallbackStreak = 0;
        // A storming domain sits out longer before re-migrating, so an
        // abort storm cannot set up a migrate/fallback oscillation.
        D.Cooldown = 4 * Config.TransitionCooldownTicks;
        MStmFallbacks->inc();
        policyTrace(PolicyAction::MigrateLock, DI);
        AnyTransition = true;
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
  TickCount.fetch_add(1, std::memory_order_relaxed);
  MEpochs->inc();

  if (Config.ForceFlip) {
    for (uint32_t D = 0; D < Domains.size(); ++D) {
      Backend To = domainBackend(D) == Backend::Lock ? Backend::Stm
                                                     : Backend::Lock;
      flipDomain(D, To);
      if (To == Backend::Stm) {
        MStmMigrations->inc();
        policyTrace(PolicyAction::MigrateStm, D);
      } else {
        MStmFallbacks->inc();
        policyTrace(PolicyAction::MigrateLock, D);
      }
    }
    return;
  }

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
    LastSlowEvents = slowEvents();
    return;
  }
  // Contention alarm: the park counter and the STM abort counters run
  // even while the profiler sleeps. A burst during a dormant tick means
  // the workload shifted under a backed-off duty cycle — re-arm now
  // rather than staying blind for up to 64 x ArmDutyTicks ticks.
  if (Config.ReArmSlowEvents) {
    uint64_t Slow = slowEvents();
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

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

std::string AdaptiveEngine::renderPolicy() const {
  std::lock_guard<std::mutex> Lock(PolicyMu);
  std::string Out;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "; adaptive: epochs=%" PRIu64 " domains=%zu\n",
                TickCount.load(std::memory_order_relaxed), Domains.size());
  Out += Buf;
  for (size_t D = 0; D < Domains.size(); ++D) {
    const DomainState &DS = *Domains[D];
    uint32_t W = DS.Word.load(std::memory_order_acquire);
    std::snprintf(Buf, sizeof(Buf),
                  ";   domain %zu: backend=%s sections=%zu commits=%" PRIu64
                  " aborts=%" PRIu64 "\n",
                  D, (W & 1u) ? "stm" : "lock", DS.Tags.size(),
                  DS.Commits.load(std::memory_order_relaxed),
                  DS.Aborts.load(std::memory_order_relaxed));
    Out += Buf;
  }
  for (uint32_t R = 0; R < RT.numRegions(); ++R)
    if (StripeTable *T = RT.regionLayout(R)) {
      std::snprintf(Buf, sizeof(Buf), ";   region %" PRIu32 ": striped x%u\n",
                    R, T->Count);
      Out += Buf;
    }
  return Out;
}
