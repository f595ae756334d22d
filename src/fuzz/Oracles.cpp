//===--- Oracles.cpp - Differential oracles over one program --------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "driver/Compiler.h"
#include "driver/Tool.h"
#include "infer/SummaryCache.h"
#include "service/Incremental.h"

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

using namespace lockin;
using namespace lockin::fuzz;

std::string fuzz::reproCommand(const FuzzConfig &C, const char *Extra) {
  std::ostringstream Cmd;
  Cmd << "lockin-fuzz --family=" << familyName(C.F) << " --seed=" << C.Seed
      << " --k=" << C.K;
  if (C.StripLocks)
    Cmd << " --strip-locks";
  if (Extra && *Extra)
    Cmd << ' ' << Extra;
  return Cmd.str();
}

namespace {

/// Error class of an interpreter failure: the text before the first ':'
/// ("protection violation", "null dereference (load)", ...), which is
/// stable across minimization while the operands in the suffix are not.
std::string errorClass(const std::string &Error) {
  size_t Colon = Error.find(':');
  return Colon == std::string::npos ? Error : Error.substr(0, Colon);
}

/// First byte where \p A and \p B diverge, rendered with a little context
/// so the failure message is readable without a diff tool.
std::string firstDivergence(const std::string &A, const std::string &B) {
  size_t N = std::min(A.size(), B.size());
  size_t I = 0;
  while (I < N && A[I] == B[I])
    ++I;
  auto Context = [&](const std::string &S) {
    size_t Lo = I > 40 ? I - 40 : 0;
    return S.substr(Lo, 80);
  };
  std::ostringstream Out;
  Out << "first divergence at byte " << I << " (sizes " << A.size() << " vs "
      << B.size() << ")\n  lhs: ..." << Context(A) << "\n  rhs: ..."
      << Context(B);
  return Out.str();
}

/// Runs \p Body on a detached thread and waits up to \p TimeoutMs for the
/// result. On timeout the run's cancel flag is raised and the thread is
/// given a short grace period to notice; a thread that still hasn't
/// finished (a genuine lock deadlock, parked in the runtime) is
/// abandoned — its keep-alives stay pinned by the shared_ptr captures.
/// Returns false on timeout. TimeoutMs == 0 runs inline.
bool runWithWatchdog(uint64_t TimeoutMs,
                     std::shared_ptr<std::atomic<bool>> Cancel,
                     std::function<InterpResult()> Body, InterpResult &Out) {
  if (TimeoutMs == 0) {
    Out = Body();
    return true;
  }
  auto Done = std::make_shared<std::promise<InterpResult>>();
  std::future<InterpResult> Fut = Done->get_future();
  std::thread([Done, Cancel, Body = std::move(Body)]() mutable {
    Done->set_value(Body());
  }).detach();
  if (Fut.wait_for(std::chrono::milliseconds(TimeoutMs)) ==
      std::future_status::ready) {
    Out = Fut.get();
    return true;
  }
  Cancel->store(true, std::memory_order_release);
  Fut.wait_for(std::chrono::milliseconds(500));
  return false;
}

/// Compiles \p Source at \p K; null plus a filled failure on a frontend
/// rejection (generated programs must always be well-formed).
std::shared_ptr<Compilation> compileOrFail(const std::string &Source,
                                           unsigned K, const FuzzConfig &C,
                                           OracleFailure &Out) {
  CompileOptions Options;
  Options.K = K;
  Options.Jobs = 1;
  std::shared_ptr<Compilation> Comp = compile(Source, Options);
  if (Comp->ok())
    return Comp;
  Out.Oracle = "frontend";
  Out.Kind = "rejected";
  Out.Detail = "generated program rejected by the frontend (k=" +
               std::to_string(K) + "):\n" + Comp->diagnostics().str();
  Out.ReproCmd = reproCommand(C);
  return nullptr;
}

struct ExecVariant {
  std::string Name;
  std::shared_ptr<Compilation> Comp;
  InterpOptions Options;
};

/// Executes one variant under the watchdog, reporting hangs as failures.
bool runVariant(const ExecVariant &V, const FuzzConfig &C, const char *Oracle,
                const char *Extra, InterpResult &R, OracleFailure &Out) {
  std::shared_ptr<Compilation> Comp = V.Comp;
  auto Cancel = std::make_shared<std::atomic<bool>>(false);
  InterpOptions Options = V.Options;
  Options.CancelFlag = Cancel.get();
  if (!runWithWatchdog(
          C.TimeoutMs, Cancel,
          [Comp, Cancel, Options] { return Comp->run(Options); }, R)) {
    Out.Oracle = Oracle;
    Out.Kind = "hang";
    Out.Detail = "hang (deadlock suspected): variant '" + V.Name +
                 "' did not finish within " + std::to_string(C.TimeoutMs) +
                 "ms";
    Out.ReproCmd = reproCommand(C, Extra);
    return false;
  }
  return true;
}

InterpOptions execOptions(const FuzzConfig &C, AtomicMode Mode,
                          uint64_t YieldSeed) {
  InterpOptions Options;
  Options.Mode = Mode;
  Options.Checked = true;
  Options.InjectYields = YieldSeed != 0;
  Options.YieldSeed = YieldSeed ? YieldSeed : 1;
  Options.FingerprintHeap = true;
  if (C.MaxSteps)
    Options.MaxSteps = C.MaxSteps;
  return Options;
}

} // namespace

bool fuzz::checkReportDeterminism(const std::string &Source,
                                  const FuzzConfig &C, OracleFailure &Out) {
  for (unsigned K : C.Ks) {
    // Reference: the serial tool run.
    std::string Reference;
    for (unsigned Jobs : C.JobsSweep) {
      cli::CliOptions Opts;
      Opts.K = K;
      Opts.Jobs = Jobs;
      tool::ToolContext Ctx;
      int Exit = tool::runAnalysis(Opts, Source, Ctx);
      if (Exit != 0) {
        Out.Oracle = "report";
        Out.Kind = "run-failed";
        Out.Detail = "runAnalysis failed (k=" + std::to_string(K) +
                     ", jobs=" + std::to_string(Jobs) +
                     ", exit=" + std::to_string(Exit) + "):\n" + Ctx.Log;
        Out.ReproCmd = reproCommand(
            C, ("--jobs=" + std::to_string(Jobs)).c_str());
        return false;
      }
      if (Jobs == C.JobsSweep.front()) {
        Reference = Ctx.Out;
      } else if (Ctx.Out != Reference) {
        Out.Oracle = "report";
        Out.Kind = "jobs-divergence";
        Out.Detail = "report differs between --jobs=" +
                     std::to_string(C.JobsSweep.front()) + " and --jobs=" +
                     std::to_string(Jobs) + " at k=" + std::to_string(K) +
                     "\n" + firstDivergence(Reference, Ctx.Out);
        Out.ReproCmd = reproCommand(
            C, ("--jobs=" + std::to_string(Jobs)).c_str());
        return false;
      }
    }

    // Warm-vs-cold service cache: the second analyze must be all hits and
    // byte-identical to the cold report.
    SummaryCache Cache(4096);
    service::IncrementalAnalyzer Analyzer(Cache);
    service::AnalyzeParams Params;
    Params.K = K;
    Params.Jobs = 1;
    service::AnalyzeOutcome Cold = Analyzer.analyze("fuzz", Source, Params);
    service::AnalyzeOutcome Warm = Analyzer.analyze("fuzz", Source, Params);
    if (!Cold.Ok || !Warm.Ok) {
      Out.Oracle = "report";
      Out.Kind = "service-failed";
      Out.Detail = "service analyze failed at k=" + std::to_string(K) + ": " +
                   (Cold.Ok ? Warm.Error : Cold.Error);
      Out.ReproCmd = reproCommand(C);
      return false;
    }
    if (Warm.Sections > 0 && Warm.CacheMisses != 0) {
      Out.Oracle = "report";
      Out.Kind = "cache-miss";
      Out.Detail = "warm service run missed the summary cache at k=" +
                   std::to_string(K) + " (" +
                   std::to_string(Warm.CacheMisses) + " misses / " +
                   std::to_string(Warm.Sections) + " sections)";
      Out.ReproCmd = reproCommand(C);
      return false;
    }
    if (Warm.Report != Cold.Report) {
      Out.Oracle = "report";
      Out.Kind = "warm-divergence";
      Out.Detail = "warm service report differs from cold at k=" +
                   std::to_string(K) + "\n" +
                   firstDivergence(Cold.Report, Warm.Report);
      Out.ReproCmd = reproCommand(C);
      return false;
    }
  }
  return true;
}

bool fuzz::checkExecEquivalence(const std::string &Source, const FuzzConfig &C,
                                OracleFailure &Out) {
  std::shared_ptr<Compilation> Primary = compileOrFail(Source, C.K, C, Out);
  if (!Primary)
    return false;

  // Reference: single global lock, no injected yields.
  ExecVariant Ref{"global-lock reference", Primary,
                  execOptions(C, AtomicMode::GlobalLock, /*YieldSeed=*/0)};
  InterpResult RefResult;
  if (!runVariant(Ref, C, "exec", nullptr, RefResult, Out))
    return false;
  // A deterministic program fault is a legal behavior: the oracle then
  // demands every variant faults with the same error class instead of
  // comparing final heaps (minimized reproducers often fault on purpose).
  bool RefFaulted = !RefResult.Ok;
  std::string RefClass = errorClass(RefResult.Error);

  std::vector<ExecVariant> Variants;
  AtomicMode Inferred = C.StripLocks ? AtomicMode::None : AtomicMode::Inferred;
  for (uint64_t Y : C.YieldSeeds) {
    Variants.push_back({"global-lock yields=" + std::to_string(Y), Primary,
                        execOptions(C, AtomicMode::GlobalLock, Y)});
    Variants.push_back({"inferred k=" + std::to_string(C.K) +
                            " yields=" + std::to_string(Y),
                        Primary, execOptions(C, Inferred, Y)});
    Variants.push_back({"stm yields=" + std::to_string(Y), Primary,
                        execOptions(C, AtomicMode::Stm, Y)});
    // Fourth backend: inferred locks under the contention-adaptive
    // engine, ticking every few sections so each seed runs the policy
    // (and any stripe escalation it decides) mid-run. It always takes
    // the inferred locks, so --strip-locks skips it.
    if (!C.StripLocks) {
      ExecVariant Adaptive{"adaptive yields=" + std::to_string(Y), Primary,
                           execOptions(C, AtomicMode::Adaptive, Y)};
      Adaptive.Options.AdaptiveEveryN = 5;
      Variants.push_back(std::move(Adaptive));
    }
  }
  // Extra inferred-lock executions across the k sweep (first yield seed).
  for (unsigned K : C.Ks) {
    if (K == C.K)
      continue;
    std::shared_ptr<Compilation> Comp = compileOrFail(Source, K, C, Out);
    if (!Comp)
      return false;
    Variants.push_back({"inferred k=" + std::to_string(K), Comp,
                        execOptions(C, Inferred, C.YieldSeeds.empty()
                                                  ? 0
                                                  : C.YieldSeeds.front())});
  }

  for (const ExecVariant &V : Variants) {
    std::string Extra = "--yield-seed=" + std::to_string(V.Options.YieldSeed);
    InterpResult R;
    if (!runVariant(V, C, "exec", Extra.c_str(), R, Out))
      return false;
    if (RefFaulted) {
      if (R.Ok || errorClass(R.Error) != RefClass) {
        Out.Oracle = "exec";
        Out.Kind = "fault-divergence";
        Out.Detail = "variant '" + V.Name + "' " +
                     (R.Ok ? "succeeded" : "failed with '" + R.Error + "'") +
                     " but the global-lock reference failed with '" +
                     RefResult.Error + "'";
        Out.ReproCmd = reproCommand(C, Extra.c_str());
        return false;
      }
      continue;
    }
    if (!R.Ok) {
      Out.Oracle = "exec";
      Out.Kind = "variant-failed: " + errorClass(R.Error);
      Out.Detail = "variant '" + V.Name + "' failed: " + R.Error;
      Out.ReproCmd = reproCommand(C, Extra.c_str());
      return false;
    }
    if (R.MainResult != RefResult.MainResult ||
        R.HeapFingerprint != RefResult.HeapFingerprint) {
      std::ostringstream D;
      D << "variant '" << V.Name << "' diverges from global-lock reference:\n"
        << "  main result " << R.MainResult << " vs " << RefResult.MainResult
        << "\n  heap fingerprint " << std::hex << R.HeapFingerprint << " vs "
        << RefResult.HeapFingerprint << std::dec << " (" << R.HeapObjects
        << " vs " << RefResult.HeapObjects << " reachable objects)";
      Out.Oracle = "exec";
      Out.Kind = "divergence";
      Out.Detail = D.str();
      Out.ReproCmd = reproCommand(C, Extra.c_str());
      return false;
    }
  }
  return true;
}

bool fuzz::checkSoundness(const std::string &Source, const FuzzConfig &C,
                          OracleFailure &Out) {
  AtomicMode Mode = C.StripLocks ? AtomicMode::None : AtomicMode::Inferred;
  for (unsigned K : C.Ks) {
    std::shared_ptr<Compilation> Comp = compileOrFail(Source, K, C, Out);
    if (!Comp)
      return false;
    for (uint64_t Y : C.YieldSeeds) {
      ExecVariant V{"checked k=" + std::to_string(K) +
                        " yields=" + std::to_string(Y),
                    Comp, execOptions(C, Mode, Y)};
      V.Options.FingerprintHeap = false;
      std::string Extra = "--yield-seed=" + std::to_string(Y);
      InterpResult R;
      if (!runVariant(V, C, "soundness", Extra.c_str(), R, Out))
        return false;
      if (R.Ok)
        continue;
      // Theorem 1 is relative to the atomic semantics: a genuine program
      // fault (null dereference, out-of-bounds, failed assert) that the
      // single-global-lock reference also exhibits is not a stuck state.
      // Protection violations and lock-protocol failures are never
      // benign.
      std::string Class = errorClass(R.Error);
      if (Class != "protection violation" &&
          Class.find("livelock") == std::string::npos) {
        ExecVariant Ref{"global-lock reference", Comp,
                        execOptions(C, AtomicMode::GlobalLock, Y)};
        Ref.Options.FingerprintHeap = false;
        InterpResult RefR;
        if (runVariant(Ref, C, "soundness", Extra.c_str(), RefR, Out) &&
            !RefR.Ok && errorClass(RefR.Error) == Class)
          continue; // program error, same under atomic semantics
      }
      FuzzConfig Narrow = C;
      Narrow.K = K;
      Out.Oracle = "soundness";
      Out.Kind = "stuck: " + Class;
      Out.Detail = "checked execution got stuck (k=" + std::to_string(K) +
                   ", yield-seed=" + std::to_string(Y) + "): " + R.Error;
      Out.ReproCmd = reproCommand(Narrow, Extra.c_str());
      return false;
    }
  }
  return true;
}

bool fuzz::checkCheckerSoundness(const std::string &Source,
                                 const FuzzConfig &C, bool ScheduleInvariant,
                                 OracleFailure &Out) {
  // Leg (a): run with the locks stripped so the checking interpreter can
  // observe real protection violations, and demand the checker's section
  // access model covers every faulted region.
  CompileOptions CheckOpts;
  CheckOpts.K = C.K;
  CheckOpts.Jobs = 1;
  CheckOpts.Check = true;
  std::shared_ptr<Compilation> Checked = compile(Source, CheckOpts);
  if (!Checked->ok() || !Checked->checkReport()) {
    Out.Oracle = "checker";
    Out.Kind = "rejected";
    Out.Detail = "checker compile failed (k=" + std::to_string(C.K) + "):\n" +
                 Checked->diagnostics().str();
    Out.ReproCmd = reproCommand(C);
    return false;
  }
  for (uint64_t Y : C.YieldSeeds) {
    ExecVariant V{"stripped yields=" + std::to_string(Y), Checked,
                  execOptions(C, AtomicMode::None, Y)};
    V.Options.FingerprintHeap = false;
    std::string Extra = "--yield-seed=" + std::to_string(Y);
    InterpResult R;
    if (!runVariant(V, C, "checker", Extra.c_str(), R, Out))
      return false;
    if (R.Ok || errorClass(R.Error) != "protection violation")
      continue;
    size_t Pos = R.Error.find("in region ");
    if (Pos == std::string::npos)
      continue; // violation without a region attribution: nothing to check
    unsigned Region = 0;
    {
      const char *Digits = R.Error.c_str() + Pos + 10;
      while (*Digits >= '0' && *Digits <= '9')
        Region = Region * 10 + static_cast<unsigned>(*Digits++ - '0');
    }
    if (!Checked->checkReport()->coversRegion(Region)) {
      Out.Oracle = "checker";
      Out.Kind = "missed-violation";
      Out.Detail = "interpreter observed '" + R.Error +
                   "' but the checker's section access model does not "
                   "cover region " +
                   std::to_string(Region);
      Out.ReproCmd = reproCommand(C, Extra.c_str());
      return false;
    }
  }

  // Leg (b): elision must be invisible to the checking semantics.
  CompileOptions ElideOpts;
  ElideOpts.K = C.K;
  ElideOpts.Jobs = 1;
  ElideOpts.ElideNeverParallel = true;
  std::shared_ptr<Compilation> Elided = compile(Source, ElideOpts);
  if (!Elided->ok())
    return true; // compile failures are the frontend oracle's business
  if (Elided->inference().elidedCount() == 0)
    return true; // nothing elided: identical to the plain run, done above

  ExecVariant Ref{"global-lock reference", Elided,
                  execOptions(C, AtomicMode::GlobalLock, /*YieldSeed=*/0)};
  InterpResult RefResult;
  if (!runVariant(Ref, C, "checker", nullptr, RefResult, Out))
    return false;
  std::string RefClass = errorClass(RefResult.Error);

  for (uint64_t Y : C.YieldSeeds) {
    ExecVariant V{"elided yields=" + std::to_string(Y), Elided,
                  execOptions(C, AtomicMode::Inferred, Y)};
    std::string Extra = "--yield-seed=" + std::to_string(Y);
    InterpResult R;
    if (!runVariant(V, C, "checker", Extra.c_str(), R, Out))
      return false;
    if (!RefResult.Ok) {
      // Deterministic program faults must stay the same fault.
      if (R.Ok || errorClass(R.Error) != RefClass) {
        Out.Oracle = "checker";
        Out.Kind = "elision-fault-divergence";
        Out.Detail = "elided run " +
                     (R.Ok ? std::string("succeeded")
                           : "failed with '" + R.Error + "'") +
                     " but the global-lock reference failed with '" +
                     RefResult.Error + "'";
        Out.ReproCmd = reproCommand(C, Extra.c_str());
        return false;
      }
      continue;
    }
    if (!R.Ok) {
      Out.Oracle = "checker";
      Out.Kind = "elision-stuck: " + errorClass(R.Error);
      Out.Detail = "elided execution failed (yield-seed=" +
                   std::to_string(Y) + "): " + R.Error;
      Out.ReproCmd = reproCommand(C, Extra.c_str());
      return false;
    }
    if (ScheduleInvariant &&
        (R.MainResult != RefResult.MainResult ||
         R.HeapFingerprint != RefResult.HeapFingerprint)) {
      std::ostringstream D;
      D << "elided execution diverges from global-lock reference "
        << "(yield-seed=" << Y << "):\n  main result " << R.MainResult
        << " vs " << RefResult.MainResult << "\n  heap fingerprint "
        << std::hex << R.HeapFingerprint << " vs " << RefResult.HeapFingerprint
        << std::dec;
      Out.Oracle = "checker";
      Out.Kind = "elision-divergence";
      Out.Detail = D.str();
      Out.ReproCmd = reproCommand(C, Extra.c_str());
      return false;
    }
  }
  return true;
}

bool fuzz::checkProgram(const std::string &Source, const FuzzConfig &C,
                        OracleFailure &Out) {
  // Frontend acceptance (and the analysis pipeline) first: a generated
  // program the compiler rejects is a generator bug worth minimizing too.
  if (!compileOrFail(Source, C.K, C, Out))
    return false;
  if (!checkReportDeterminism(Source, C, Out))
    return false;
  // Stress and LegacyConc heaps are legitimately schedule-dependent;
  // everything else must agree across backends and schedules.
  bool ScheduleInvariant = C.F == Family::Seq || C.F == Family::Commute ||
                           C.F == Family::LegacySeq;
  if (ScheduleInvariant && !checkExecEquivalence(Source, C, Out))
    return false;
  if (!checkSoundness(Source, C, Out))
    return false;
  // Fault-injected runs already execute with the locks stripped; the
  // checker oracle's leg (a) would be redundant and leg (b) meaningless.
  if (C.StripLocks)
    return true;
  return checkCheckerSoundness(Source, C, ScheduleInvariant, Out);
}
