//===--- SimExec.cpp - Simulated-parallelism executor --------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "workloads/SimExec.h"

#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>

using namespace lockin;
using namespace lockin::rt;
using namespace lockin::workloads;
using namespace lockin::workloads::sim;

bool sim::descriptorsConflict(const LockDescriptor &A,
                              const LockDescriptor &B) {
  if (!A.Write && !B.Write)
    return false; // two readers never conflict
  if (A.K == LockDescriptor::Kind::Global ||
      B.K == LockDescriptor::Kind::Global)
    return true;
  if (A.Region != B.Region)
    return false;
  // Same region: a coarse lock overlaps everything in the region; two
  // fine locks overlap only on the same address.
  if (A.K == LockDescriptor::Kind::Coarse ||
      B.K == LockDescriptor::Kind::Coarse)
    return true;
  return A.Address == B.Address;
}

namespace {

bool lockSetsConflict(const std::vector<LockDescriptor> &A,
                      const std::vector<LockDescriptor> &B) {
  for (const LockDescriptor &LA : A)
    for (const LockDescriptor &LB : B)
      if (descriptorsConflict(LA, LB))
        return true;
  return false;
}

/// Hierarchy nodes a lock set touches (for the protocol cost model):
/// root + one region node per distinct region + one leaf per fine lock.
uint64_t nodeCount(const std::vector<LockDescriptor> &Locks) {
  uint64_t Nodes = 1; // root
  std::vector<uint32_t> Regions;
  for (const LockDescriptor &D : Locks) {
    if (D.K == LockDescriptor::Kind::Global)
      continue;
    if (std::find(Regions.begin(), Regions.end(), D.Region) ==
        Regions.end()) {
      Regions.push_back(D.Region);
      ++Nodes;
    }
    if (D.K == LockDescriptor::Kind::Fine)
      ++Nodes;
  }
  return Nodes;
}

struct RunningSection {
  unsigned Thread;
  uint64_t End;
  std::vector<LockDescriptor> Locks;
};

SimOutcome simulateLocks(const SimParams &Params, const OpSource &Source) {
  SimOutcome Outcome;
  struct ThreadState {
    uint64_t Now = 0;
    uint64_t OpIndex = 0;
    SimOp Pending;
    bool HasPending = false;
    bool Done = false;
    uint64_t BlockedSince = 0;
  };
  std::vector<ThreadState> Threads(Params.Threads);
  std::vector<RunningSection> Running;

  // Event loop: repeatedly advance the thread with the earliest time.
  // FIFO-ish fairness: ties and retries resolve in (time, blocked-since)
  // order, so a blocked section eventually runs.
  while (true) {
    // Pick the earliest non-done thread.
    unsigned Best = ~0u;
    for (unsigned T = 0; T < Params.Threads; ++T) {
      if (Threads[T].Done)
        continue;
      if (Best == ~0u || Threads[T].Now < Threads[Best].Now ||
          (Threads[T].Now == Threads[Best].Now &&
           Threads[T].BlockedSince < Threads[Best].BlockedSince))
        Best = T;
    }
    if (Best == ~0u)
      break;
    ThreadState &TS = Threads[Best];

    // Retire finished sections up to this time.
    Running.erase(std::remove_if(Running.begin(), Running.end(),
                                 [&](const RunningSection &S) {
                                   return S.End <= TS.Now;
                                 }),
                  Running.end());

    if (!TS.HasPending) {
      if (TS.OpIndex >= Params.OpsPerThread ||
          !Source(Best, TS.OpIndex, TS.Pending)) {
        TS.Done = true;
        Outcome.Makespan = std::max(Outcome.Makespan, TS.Now);
        continue;
      }
      ++TS.OpIndex;
      TS.HasPending = true;
      TS.Now += TS.Pending.Think;
      TS.BlockedSince = TS.Now;
      continue;
    }

    // Try to enter the section: conflict against every running section.
    uint64_t EarliestConflictEnd = 0;
    bool Conflict = false;
    for (const RunningSection &S : Running) {
      if (S.End > TS.Now && lockSetsConflict(S.Locks, TS.Pending.Locks)) {
        Conflict = true;
        if (EarliestConflictEnd == 0 || S.End < EarliestConflictEnd)
          EarliestConflictEnd = S.End;
      }
    }
    if (Conflict) {
      obs::tracer().span(obs::EventKind::SimWaitSpan, TS.Now,
                         EarliestConflictEnd - TS.Now, 0, Best + 1);
      Outcome.BlockedCycles += EarliestConflictEnd - TS.Now;
      TS.Now = EarliestConflictEnd; // wake when the blocker releases
      continue;
    }

    uint64_t Overhead =
        Params.LockEntryCost + Params.LockNodeCost * nodeCount(
                                                         TS.Pending.Locks);
    uint64_t End = TS.Now + Overhead + TS.Pending.Duration;
    obs::tracer().span(obs::EventKind::SimOpSpan, TS.Now, End - TS.Now,
                       TS.OpIndex - 1, Best + 1);
    Running.push_back({Best, End, TS.Pending.Locks});
    TS.Now = End;
    TS.HasPending = false;
    ++Outcome.Commits;
  }
  return Outcome;
}

SimOutcome simulateStm(const SimParams &Params, const OpSource &Source) {
  SimOutcome Outcome;
  // TL2 in simulated time: LastWrite[A] is the commit time of the last
  // transaction that wrote A; a commit aborts iff part of its footprint
  // was written after its start.
  std::unordered_map<uint64_t, uint64_t> LastWrite;

  struct ThreadState {
    uint64_t Now = 0; ///< next event time (commit time while in flight)
    uint64_t OpIndex = 0;
    SimOp Pending;
    bool HasPending = false;
    bool InFlight = false;
    uint64_t Start = 0;
    bool Done = false;
    uint64_t Attempts = 0;
  };
  std::vector<ThreadState> Threads(Params.Threads);

  // Events (transaction commits) are processed in global time order, so
  // every commit before time t has updated LastWrite when a commit at t
  // validates — matching TL2's version-clock semantics.
  while (true) {
    unsigned Best = ~0u;
    for (unsigned T = 0; T < Params.Threads; ++T) {
      if (Threads[T].Done)
        continue;
      if (Best == ~0u || Threads[T].Now < Threads[Best].Now)
        Best = T;
    }
    if (Best == ~0u)
      break;
    ThreadState &TS = Threads[Best];

    if (!TS.HasPending) {
      if (TS.OpIndex >= Params.OpsPerThread ||
          !Source(Best, TS.OpIndex, TS.Pending)) {
        TS.Done = true;
        Outcome.Makespan = std::max(Outcome.Makespan, TS.Now);
        continue;
      }
      ++TS.OpIndex;
      TS.HasPending = true;
      TS.Attempts = 0;
      TS.Now += TS.Pending.Think;
      continue;
    }

    if (!TS.InFlight) {
      // Begin an attempt: the next event is its commit.
      uint64_t TxCost = Params.StmEntryCost +
                        Params.StmAccessCost * TS.Pending.Footprint.size() +
                        TS.Pending.Duration;
      TS.Start = TS.Now;
      TS.Now += TxCost;
      TS.InFlight = true;
      continue;
    }

    // Commit event: validate the footprint against writes committed
    // inside (Start, Now).
    bool Valid = true;
    for (const Access &A : TS.Pending.Footprint) {
      auto It = LastWrite.find(A.Addr);
      if (It != LastWrite.end() && It->second > TS.Start) {
        Valid = false;
        break;
      }
    }
    TS.InFlight = false;
    if (!Valid) {
      obs::tracer().span(obs::EventKind::SimAbort, TS.Now, 0, 0, Best + 1);
      ++Outcome.Aborts;
      ++TS.Attempts;
      // Brief backoff before the retry re-runs the whole body.
      TS.Now += TS.Attempts < 10 ? (1ull << TS.Attempts) : 1024;
      continue;
    }
    obs::tracer().span(obs::EventKind::SimOpSpan, TS.Start,
                       TS.Now - TS.Start, TS.OpIndex - 1, Best + 1);
    for (const Access &A : TS.Pending.Footprint)
      if (A.Write)
        LastWrite[A.Addr] = TS.Now;
    TS.HasPending = false;
    ++Outcome.Commits;
  }
  return Outcome;
}

} // namespace

SimOutcome sim::simulate(const SimParams &Params, const OpSource &Source) {
  SimOutcome Outcome = Params.Config == LockConfig::Stm
                           ? simulateStm(Params, Source)
                           : simulateLocks(Params, Source);
  obs::MetricsRegistry &Reg = obs::metrics();
  Reg.counter("sim.commits").add(Outcome.Commits);
  Reg.counter("sim.aborts").add(Outcome.Aborts);
  Reg.counter("sim.blocked_cycles").add(Outcome.BlockedCycles);
  return Outcome;
}
