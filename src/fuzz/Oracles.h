//===--- Oracles.h - Differential oracles over one program ------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three cross-configuration oracles the differential fuzzer applies
/// to every generated program:
///
///  1. Report determinism: `tool::runAnalysis` must produce byte-identical
///     reports across --jobs 1/2/4 for every k in the sweep, and the
///     service's warm cache run (every section a SummaryCache hit) must
///     reproduce the cold report byte for byte.
///  2. Execution equivalence: for programs whose final heap is
///     schedule-invariant (Family::Seq, Family::Commute), the inferred-lock
///     execution at every k (and under the contention-adaptive engine),
///     the single-global-lock reference, and the STM backend must all
///     finish Ok with the same main() result and the same
///     canonical reachable-heap fingerprint, across a sweep of injected
///     yield schedules.
///  3. Soundness (Theorem 1): under the §4.2 checking interpreter the
///     transformed program never gets stuck (no protection violation) and
///     acquireAll never deadlocks — a watchdog converts a hang into a
///     reported failure instead of a wedged fuzzer.
///
/// Every failure carries a one-line `lockin-fuzz ...` reproducer command.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_FUZZ_ORACLES_H
#define LOCKIN_FUZZ_ORACLES_H

#include "fuzz/Generator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lockin {
namespace fuzz {

/// One program's oracle configuration. The defaults are the sweeps the
/// campaign uses; reproducer commands narrow them to the failing point.
struct FuzzConfig {
  Family F = Family::Seq;
  uint64_t Seed = 1;
  /// Primary k for the execution and soundness oracles.
  unsigned K = 3;
  /// k sweep for report determinism (and extra inferred-lock executions).
  std::vector<unsigned> Ks{0, 2, 9};
  /// --jobs sweep for report determinism.
  std::vector<unsigned> JobsSweep{1, 2, 4};
  /// Injected-yield schedules for the execution/soundness oracles.
  std::vector<uint64_t> YieldSeeds{1, 7, 101};
  /// Fault injection: execute with the inferred locks stripped
  /// (AtomicMode::None) so the checking interpreter must get stuck. Used
  /// to validate that the oracles and the minimizer actually work.
  bool StripLocks = false;
  /// Hang watchdog per interpreter run; 0 runs inline (no watchdog).
  uint64_t TimeoutMs = 20'000;
  /// Per-thread interpreter step budget; 0 keeps the interpreter default.
  /// The minimizer tightens this so candidates with runaway loops (e.g. a
  /// deleted loop-counter increment) fail in milliseconds instead of
  /// spinning until the watchdog fires.
  uint64_t MaxSteps = 0;
};

/// A reported oracle violation.
struct OracleFailure {
  /// "frontend" | "report" | "exec" | "soundness" | "syntax".
  std::string Oracle;
  /// Failure signature within the oracle ("divergence", "hang",
  /// "stuck: protection violation", ...). The minimizer requires
  /// candidates to reproduce the same (Oracle, Kind) pair, so shrinking
  /// cannot drift onto an unrelated failure (e.g. deleting main() makes
  /// every execution fail, but with a different Kind).
  std::string Kind;
  /// Human-readable description of the divergence.
  std::string Detail;
  /// One-line `lockin-fuzz ...` command reproducing this exact failure.
  std::string ReproCmd;
};

/// Renders the one-line reproducer command for \p C; \p Extra (e.g.
/// "--strip-locks") is appended verbatim when non-null.
std::string reproCommand(const FuzzConfig &C, const char *Extra = nullptr);

/// Oracle 1. True when reports agree everywhere; fills \p Out otherwise.
bool checkReportDeterminism(const std::string &Source, const FuzzConfig &C,
                            OracleFailure &Out);

/// Oracle 2. Only meaningful for Seq/Commute programs (Stress heaps are
/// legitimately schedule-dependent; callers skip it there).
bool checkExecEquivalence(const std::string &Source, const FuzzConfig &C,
                          OracleFailure &Out);

/// Oracle 3. Applies to every family.
bool checkSoundness(const std::string &Source, const FuzzConfig &C,
                    OracleFailure &Out);

/// Oracle 4: checker soundness, two legs.
///  (a) The lockin-check access model must cover every protection
///      violation the checking interpreter observes when the program runs
///      with the locks stripped (AtomicMode::None): the faulted region is
///      always part of some section's inferred lock footprint.
///  (b) With ElideNeverParallel on, elided programs still run clean under
///      the §4.2 checking interpreter across the yield-seed sweep, and —
///      when \p ScheduleInvariant — finish heap-equivalent to the
///      global-lock reference.
bool checkCheckerSoundness(const std::string &Source, const FuzzConfig &C,
                           bool ScheduleInvariant, OracleFailure &Out);

/// Runs the oracles appropriate for C.F: frontend acceptance + report
/// determinism always; execution equivalence for Seq/Commute; soundness
/// for every family.
bool checkProgram(const std::string &Source, const FuzzConfig &C,
                  OracleFailure &Out);

} // namespace fuzz
} // namespace lockin

#endif // LOCKIN_FUZZ_ORACLES_H
