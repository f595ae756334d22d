//===--- Interp.h - Concurrent interpreter with checking --------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concurrent interpreter for the (transformed) IR. Threads are real
/// std::threads created by `spawn`; atomic sections acquire locks through
/// the multi-granularity runtime according to the configured mode:
///
///  - None: sections acquire nothing (exposes the unprotected program).
///  - GlobalLock: one global lock per section (the paper's baseline).
///  - Inferred: the acquireAll(N) sets computed by the lock inference;
///    fine lock expressions are evaluated to addresses at section entry
///    and re-validated after acquisition (see DESIGN.md).
///
/// In checked mode the interpreter implements the instrumented operational
/// semantics of §4.2: every shared-location access inside an atomic
/// section must be covered by a held lock under the concrete lock
/// semantics, otherwise the run stops with a protection violation — the
/// "stuck state" of Theorem 1. The soundness property tests assert that
/// transformed programs never get stuck.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_INTERP_INTERP_H
#define LOCKIN_INTERP_INTERP_H

#include "infer/Inference.h"
#include "ir/Ir.h"
#include "pointsto/Steensgaard.h"
#include "runtime/LockRuntime.h"

#include <atomic>
#include <memory>
#include <string>

namespace lockin {

/// How atomic sections are protected during execution.
///
/// Stm runs sections as TL2-style transactions instead of lock
/// acquisitions: reads are validated against a global version clock,
/// writes are buffered and applied at commit under per-location
/// versioned latches, and conflicting sections abort and retry. It is
/// the differential fuzzer's third execution backend; the §4.2
/// protection checking does not apply to it (there are no held locks).
///
/// Adaptive runs every section on the Inferred lock backend (GlobalLock
/// when no inference is supplied) with the contention-adaptive policy
/// engine attached, which escalates hot fine-grained regions into
/// striped leaf tables at run time (see DESIGN.md "Adaptive runtime").
enum class AtomicMode { None, GlobalLock, Inferred, Stm, Adaptive };

struct InterpOptions {
  AtomicMode Mode = AtomicMode::Inferred;
  /// Enforce the checking semantics of §4.2.
  bool Checked = true;
  /// Inject scheduler yields at shared accesses to diversify
  /// interleavings in property tests (seeded, per thread).
  bool InjectYields = false;
  uint64_t YieldSeed = 1;
  /// Per-thread step budget; exceeding it fails the run (runaway loop).
  uint64_t MaxSteps = 50'000'000;
  /// Cooperative cancellation: when non-null and set, the run stops with
  /// a "canceled" error. Watchdogs that abandon a hung run set this so
  /// the orphaned threads wind down instead of executing to the step
  /// limit (threads parked in a genuine lock deadlock stay parked).
  const std::atomic<bool> *CancelFlag = nullptr;
  /// Compute InterpResult::HeapFingerprint after the run: a canonical
  /// hash of the heap reachable from the globals (garbage excluded, so
  /// aborted STM attempts don't perturb it). The differential oracles
  /// compare it across protection backends.
  bool FingerprintHeap = false;
  /// AtomicMode::Adaptive: per-thread sections between count-based policy
  /// epochs (the interpreter has no wall clock worth trusting in tests;
  /// the CLI driver layers wall-clock epochs on top via AdaptiveEpochMs).
  uint32_t AdaptiveEveryN = 64;
  /// AtomicMode::Adaptive: wall-clock policy epoch period in ms; 0 runs
  /// count-based epochs only.
  unsigned AdaptiveEpochMs = 0;
};

struct InterpResult {
  bool Ok = false;
  /// Failure description: "assert failed", "null dereference",
  /// "protection violation: ...", "deadlock suspected", ...
  std::string Error;
  /// Return value of main when it returns an int; 0 otherwise.
  int64_t MainResult = 0;
  uint64_t TotalSteps = 0;
  uint64_t ProtectionChecks = 0;
  /// Canonical hash of the reachable final heap (with
  /// InterpOptions::FingerprintHeap); identical programs under any sound
  /// protection regime must agree on it.
  uint64_t HeapFingerprint = 0;
  /// Objects visited by the fingerprint walk.
  uint32_t HeapObjects = 0;
  /// STM backend counters (AtomicMode::Stm only).
  uint64_t StmCommits = 0;
  uint64_t StmAborts = 0;
};

/// Executes \p Module starting at \p MainFunction ("main" by default).
/// \p Inference is required for AtomicMode::Inferred and ignored
/// otherwise; \p PT provides the region map shared with the analysis.
InterpResult interpret(const ir::IrModule &Module,
                       const PointsToAnalysis &PT,
                       const InferenceResult *Inference,
                       const InterpOptions &Options,
                       const std::string &MainFunction = "main");

} // namespace lockin

#endif // LOCKIN_INTERP_INTERP_H
