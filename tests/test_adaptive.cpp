//===--- test_adaptive.cpp - Contention-adaptive runtime tests -----------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
//
// Deterministic policy tests: the profiler slots are pumped by hand and
// the engine is ticked manually (EveryNSections = 0, no epoch thread,
// ArmDutyTicks = 1 so every tick reads a full epoch delta), so each
// transition fires on an exact tick. LiveEscalationKeepsSectionsAtomic
// exercises live layout swaps under real threads.
//
//===----------------------------------------------------------------------===//

#include "runtime/Adaptive.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace lockin;
using namespace lockin::rt;
using namespace lockin::rt::adaptive;

namespace {

// Mode indices into NodeSlot::ModeCounts (the Mode enum order).
constexpr unsigned kIS = 0, kIX = 1, kS = 2, kX = 4;

/// Test fixture state: a fresh runtime with injected registry/profiler
/// so counter asserts are exact, plus an engine configured for manual
/// single-tick epochs.
struct Rig {
  obs::MetricsRegistry Reg;
  obs::LockProfiler Prof;
  LockRuntime RT;
  AdaptiveEngine Eng;

  explicit Rig(AdaptiveConfig C, unsigned NumRegions = 1)
      : RT(NumRegions, &Reg, &Prof), Eng(RT, C) {}

  obs::NodeSlot &slot(LockNode &N) { return Prof.nodeSlot(N.ObsId); }
};

AdaptiveConfig manualConfig() {
  AdaptiveConfig C;
  C.ArmDutyTicks = 1; // always armed: tick N+1 sees tick N..N+1 deltas
  C.EscalateEpochs = 2;
  C.DeescalateEpochs = 2;
  C.TransitionCooldownTicks = 1;
  return C;
}

//===----------------------------------------------------------------------===//
// Stripe escalation
//===----------------------------------------------------------------------===//

TEST(AdaptiveEscalate, StripesInstalledSizedAndRemoved) {
  AdaptiveConfig C = manualConfig();
  C.EscalateLeafPressure = 4; // reachable without creating 2048 leaves
  Rig R(C);

  std::vector<LockNode *> Leaves;
  for (uint64_t I = 0; I < 8; ++I)
    Leaves.push_back(&R.RT.leafNode(0, 0x1000 + I * 8));
  ASSERT_GE(R.RT.regionLeafCount(0), 4u);
  LockNode &Region = R.RT.regionNode(0);

  R.Eng.tick(); // snapshot

  // Fine-dominated traffic at the region node (intention grants only).
  auto PumpFine = [&] {
    R.slot(Region).ModeCounts[kIS].add(50);
    R.slot(Region).ModeCounts[kIX].add(30);
  };
  PumpFine();
  R.Eng.tick();
  EXPECT_EQ(R.RT.regionLayout(0), nullptr); // EscStreak = 1

  // 8 observed contenders on a leaf size the table: max(MinStripes,
  // 4 * popcount) = 32.
  PumpFine();
  R.slot(*Leaves[0]).ContenderMask.store(0xFF, std::memory_order_relaxed);
  R.Eng.tick();
  StripeTable *T = R.RT.regionLayout(0);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Count, 32u);
  EXPECT_GE(T->Count, C.MinStripes);
  EXPECT_LE(T->Count, C.MaxStripes);
  EXPECT_EQ(R.Reg.counter("adaptive.region_escalations").value(), 1u);

  // Coarse traffic takes over: cooldown tick, then two coarse epochs
  // swap the flat layout back in.
  auto PumpCoarse = [&] { R.slot(Region).ModeCounts[kS].add(60); };
  PumpCoarse();
  R.Eng.tick(); // cooldown
  EXPECT_NE(R.RT.regionLayout(0), nullptr);
  PumpCoarse();
  R.Eng.tick(); // DeescStreak = 1
  EXPECT_NE(R.RT.regionLayout(0), nullptr);
  PumpCoarse();
  R.Eng.tick(); // DeescStreak = 2: de-escalate
  EXPECT_EQ(R.RT.regionLayout(0), nullptr);
  EXPECT_EQ(R.Reg.counter("adaptive.region_deescalations").value(), 1u);
}

TEST(AdaptiveEscalate, LiveEscalationKeepsSectionsAtomic) {
  // Layout swaps race real fine-grained sections: every increment must
  // land exactly once regardless of which layout granted it.
  obs::MetricsRegistry Reg;
  obs::LockProfiler Prof;
  LockRuntime RT(1, &Reg, &Prof);
  constexpr unsigned NumThreads = 4;
  constexpr uint64_t Iters = 8000;
  constexpr unsigned NumAddrs = 64;
  std::vector<uint64_t> Words(NumAddrs, 0);

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ThreadLockContext Ctx(RT);
      Rng Rand(0x5eed + T);
      for (uint64_t I = 0; I < Iters; ++I) {
        uint32_t Idx = static_cast<uint32_t>(Rand.below(NumAddrs));
        Ctx.toAcquire(
            LockDescriptor::fine(0, 0x1000 + uint64_t(Idx) * 8, true));
        Ctx.acquireAll();
        ++Words[Idx];
        Ctx.releaseAll();
      }
    });
  for (int Swap = 0; Swap < 24; ++Swap) {
    RT.escalateRegion(0, 8);
    std::this_thread::yield();
    RT.deescalateRegion(0);
    std::this_thread::yield();
  }
  for (std::thread &T : Threads)
    T.join();
  uint64_t Sum = 0;
  for (uint64_t W : Words)
    Sum += W;
  EXPECT_EQ(Sum, uint64_t(NumThreads) * Iters);
}

//===----------------------------------------------------------------------===//
// Epoch duty cycle
//===----------------------------------------------------------------------===//

TEST(AdaptiveDuty, ProfilerArmsOneTickInDutyAndBacksOff) {
  AdaptiveConfig C;
  C.ArmDutyTicks = 4;
  C.StableTicksToBackoff = 2;
  Rig R(C);
  ASSERT_FALSE(R.Prof.enabled());

  // Dormant ticks leave the profiler off; the arm tick turns it on and
  // the following read tick turns it back off.
  R.Eng.tick();
  EXPECT_FALSE(R.Prof.enabled()); // dormant 1
  R.Eng.tick();
  EXPECT_FALSE(R.Prof.enabled()); // dormant 2
  R.Eng.tick();
  EXPECT_TRUE(R.Prof.enabled()); // armed
  R.Eng.tick();
  EXPECT_FALSE(R.Prof.enabled()); // read + disarmed (stable read #1)

  // One more arm/read cycle reaches StableTicksToBackoff: the duty
  // interval compounds 4x, so the next arm is 15 dormant ticks away.
  R.Eng.tick();
  R.Eng.tick();
  R.Eng.tick();
  EXPECT_TRUE(R.Prof.enabled());
  R.Eng.tick();
  EXPECT_FALSE(R.Prof.enabled()); // stable read #2: backoff kicks in

  int DormantBeforeArm = 0;
  while (!R.Prof.enabled()) {
    R.Eng.tick();
    ++DormantBeforeArm;
    ASSERT_LE(DormantBeforeArm, 64);
  }
  EXPECT_EQ(DormantBeforeArm, 15); // ArmDutyTicks * 4 = 16-tick period
}

TEST(AdaptiveDuty, MaybeTickCountsEachCallersSections) {
  AdaptiveConfig C;
  C.EveryNSections = 3;
  Rig R(C);
  uint32_t A = 0, B = 0;
  for (int I = 0; I < 7; ++I)
    R.Eng.maybeTick(A); // ticks on the 3rd and 6th section
  EXPECT_EQ(R.Reg.counter("adaptive.epochs").value(), 2u);
  EXPECT_EQ(A, 1u);
  R.Eng.maybeTick(B); // a second thread's counter starts from zero
  R.Eng.maybeTick(B);
  EXPECT_EQ(R.Reg.counter("adaptive.epochs").value(), 2u);
  R.Eng.maybeTick(B);
  EXPECT_EQ(R.Reg.counter("adaptive.epochs").value(), 3u);

  Rig Off(AdaptiveConfig{}); // EveryNSections = 0: count-based ticks off
  uint32_t N = 0;
  for (int I = 0; I < 100; ++I)
    Off.Eng.maybeTick(N);
  EXPECT_EQ(Off.Reg.counter("adaptive.epochs").value(), 0u);
}

TEST(AdaptiveDuty, UserArmedProfilerIsLeftAlone) {
  AdaptiveConfig C;
  C.ArmDutyTicks = 4;
  obs::MetricsRegistry Reg;
  obs::LockProfiler Prof;
  Prof.setEnabled(true); // user armed it before the engine existed
  LockRuntime RT(1, &Reg, &Prof);
  {
    AdaptiveEngine Eng(RT, C);
    for (int I = 0; I < 10; ++I) {
      Eng.tick();
      EXPECT_TRUE(Prof.enabled()); // never duty-cycled off
    }
  }
  EXPECT_TRUE(Prof.enabled()); // and not disabled at engine teardown
}

} // namespace
