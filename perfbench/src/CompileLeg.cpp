//===--- CompileLeg.cpp - Cold compiles of one mega program --------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Repeated cold lockin::compile() of a pool of four seeded
/// fuzz::Family::Mega programs, taken in turn, at k=9 with every other
/// option at its default. Seed s compiles the programs of seeds 4s..4s+3:
/// how long one program takes depends on its seed (by ±7% across seeds),
/// and the pool averages that out of compile_s. Each compile's report()
/// digest must equal the digest recorded for its program in digests.txt;
/// for a program without one, every compile must match a serial (Jobs=1)
/// reference compile instead.
///
/// Each step of the traced run runs compile(), the same pipeline called one
/// layer at a time (parse → sema → lower → callgraph → points-to → infer
/// → transform) without spans, and that chain again with each call a span
/// under one "compile" root span, all on the same program.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "ir/IrPrinter.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <fstream>
#include <sstream>
#include <thread>

using namespace lockin;

namespace perfbench {
namespace {

/// fuzz::generateProgram undershoots its line target; 36000 gives about
/// 30k lines.
constexpr unsigned MegaLines = 36000;
constexpr unsigned K = 9;
/// Programs per seed; seed s compiles those of seeds PoolSize*s + j.
constexpr unsigned PoolSize = 4;

struct LayeredOutcome {
  bool Ok = false;
  double Seconds = 0; ///< the chain, excluding freeing its results
  std::string Transformed;
  InferenceStats Stats;
};

/// The pipeline of lockin::compile(), one public layer call per span
/// when \p Log is set. Like compile(), it frees the LockInference inside
/// the timed work and everything else after it.
LayeredOutcome compileLayered(const std::string &Source, SpanLog *Log,
                              uint64_t Id) {
  LayeredOutcome Out;
  FrontHalf F;
  std::unique_ptr<InferenceResult> Result;
  auto Start = Clock::now();
  int64_t Root = Log ? Log->open("compile", Id) : -1;
  runFrontHalf(Source, F, Log, Id, Root);
  if (F.ok()) {
    Result = layerCall(Log, "infer.run", Id, Root, [&] {
      InferenceOptions IO;
      IO.K = K;
      IO.Jobs = CompileOptions{}.Jobs;
      LockInference Inference(*F.Module, *F.PT, *F.CG, IO);
      auto R = std::make_unique<InferenceResult>(Inference.run());
      Out.Stats = Inference.stats();
      return R;
    });
    Out.Transformed = layerCall(Log, "ir.print", Id, Root, [&] {
      return ir::printIrModule(*F.Module, [&](uint32_t SectionId) {
        return Result->annotate(SectionId);
      });
    });
    Out.Ok = true;
  }
  Out.Seconds = seconds(Start, Clock::now());
  if (Log)
    Log->close(Root);
  return Out;
}

fuzz::GenOptions megaOptions(uint64_t Seed) {
  fuzz::GenOptions Gen;
  Gen.F = fuzz::Family::Mega;
  Gen.Seed = Seed;
  Gen.MegaLines = MegaLines;
  return Gen;
}

CompileOptions compileOptions() {
  CompileOptions Opts;
  Opts.K = K;
  return Opts;
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0;
}

} // namespace

void runFrontHalf(const std::string &Source, FrontHalf &F, SpanLog *Log,
                  uint64_t Id, int64_t Root) {
  F.Ast = layerCall(Log, "lang.parse", Id, Root, [&] {
    Parser P(Source, F.Diags);
    return P.parseProgram();
  });
  if (!F.Ast || F.Diags.hasErrors())
    return;
  if (!layerCall(Log, "lang.sema", Id, Root,
                 [&] { return runSema(*F.Ast, F.Diags); }))
    return;
  F.Module = layerCall(Log, "ir.lower", Id, Root,
                       [&] { return lowerProgram(*F.Ast, F.Diags); });
  if (!F.Module || F.Diags.hasErrors())
    return;
  F.CG = layerCall(Log, "analysis.callgraph", Id, Root, [&] {
    return std::make_unique<analysis::CallGraph>(*F.Module);
  });
  F.PT = layerCall(Log, "pointsto.solve", Id, Root, [&] {
    return std::make_unique<PointsToAnalysis>(*F.Module);
  });
}

bool recordedDigest(const std::string &File, uint64_t Seed,
                    uint64_t &Digest) {
  std::ifstream In(File);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    uint64_t S = 0;
    std::string Hex;
    if (Line.empty() || Line[0] == '#' || !(Fields >> S >> Hex))
      continue;
    if (S == Seed) {
      Digest = std::stoull(Hex, nullptr, 16);
      return true;
    }
  }
  return false;
}

uint64_t compileDigest(uint64_t Seed) {
  std::unique_ptr<Compilation> C =
      compile(fuzz::generateProgram(megaOptions(Seed)), compileOptions());
  return C->ok() ? fnv1a(C->report()) : 0;
}

namespace {

class CompileLeg : public LegRunner {
public:
  CompileLeg(const LegPlan &Plan, const Corruption &Bad) : Plan(Plan) {
    if (Bad.DropSpan)
      R.Spans.drop(Bad.DropSpan);
    // Set-up: generating the programs.
    std::vector<double> Setups;
    for (unsigned I = 0; I < SetupRepeats; ++I) {
      auto T0 = Clock::now();
      Sources.assign(PoolSize, std::string());
      for (unsigned J = 0; J < PoolSize; ++J)
        Sources[J] = fuzz::generateProgram(megaOptions(programSeed(J)));
      Setups.push_back(seconds(T0, Clock::now()));
    }
    R.SetupSeconds = median(Setups);
    // A program without a recorded digest is checked against a serial
    // compile; those run side by side, one thread each.
    Expected.assign(PoolSize, 0);
    std::vector<std::thread> References;
    for (unsigned J = 0; J < PoolSize; ++J) {
      if (recordedDigest(Plan.DigestFile, programSeed(J), Expected[J]))
        continue;
      std::printf("# compile: program seed %llu has no recorded digest; "
                  "checking against a serial compile\n",
                  static_cast<unsigned long long>(programSeed(J)));
      References.emplace_back([this, J] {
        CompileOptions Serial = compileOptions();
        Serial.Jobs = 1;
        Expected[J] = fnv1a(compile(Sources[J], Serial)->report());
      });
    }
    for (std::thread &T : References)
      T.join();
    if (Bad.CompileDigest)
      for (uint64_t &E : Expected)
        E ^= 1;
  }

  void step() override {
    if (!Plan.Trace) {
      compileOnce();
      return;
    }
    // The traced run pairs compile() with the layer chain without and
    // with spans, in an order that rotates from step to step.
    double E = 0, U = 0, T = 0, L = 0;
    uint64_t Digest = 0, ChainDigests[2] = {0, 0};
    size_t Step = Compiles;
    unsigned Program = Next;
    for (unsigned I = 0; I < 3; ++I) {
      size_t Kind = (Step + I) % 3;
      if (Kind == 0) {
        Digest = compileOnce(&E);
        continue;
      }
      bool Traced = Kind == 2;
      ++Id;
      ++R.Attempted;
      size_t First = R.Spans.spans().size();
      LayeredOutcome O =
          compileLayered(Sources[Program], Traced ? &R.Spans : nullptr, Id);
      ChainDigests[Traced] = O.Ok ? fnv1a(O.Transformed) : 0;
      (Traced ? T : U) = O.Seconds;
      if (!Traced)
        continue;
      Stats = O.Stats;
      for (SpanLog::Root &Root : R.Spans.roots("compile", First)) {
        L = Root.covered();
        Roots.push_back(std::move(Root));
      }
    }
    if (ChainDigests[0] != Digest || ChainDigests[1] != Digest) {
      R.fail("layered compile " + std::to_string(Id) +
             ": transformed program differs from compile()");
      return;
    }
    R.Account.add(E, U, T, L);
  }

  bool enough() const override {
    return Compiles >= (Plan.Trace ? 5u : PoolSize);
  }

  LegResult finish() override {
    // The mean over the pool of each program's median: the pool's
    // programs cost different amounts, and their mean does not depend on
    // which of them the run happened to compile once more.
    double Sum = 0;
    unsigned Programs = 0;
    for (const std::vector<double> &Times : Untraced)
      if (!Times.empty())
        Sum += median(Times), ++Programs;
    R.EndToEnd.push_back({"compile_s", "s", Programs ? Sum / Programs : 0,
                          std::to_string(Compiles) + " compiles, mean over " +
                              std::to_string(Programs) +
                              " programs of each one's median"});
    R.EndToEnd.push_back({"peak_rss_mb", "MiB", peakRssMb(), "VmHWM"});
    if (!Plan.Trace)
      return std::move(R);

    R.Account.Note = "per step: compile(); the layer chain without and with "
                     "spans; the layers under the traced chain";
    // Two cold compiles in a row differ by -23% to +14% on a shared 4-core
    // host (Jobs=4 threads on 4 vCPUs), and the median of five pairs by up
    // to 12%. At 25% only a missing infer.run shows here; the front-half
    // layers are the same calls the service leg checks within 10%.
    R.Account.NoiseShare = 0.25;
    const SummaryStats &SS = Stats.Summaries;
    auto Count = [](uint64_t N) { return static_cast<double>(N); };
    auto Layer = [&](const char *Name) { return layerMedian(Roots, Name); };
    R.Layers = {
        {"lang.parse_s", "s", Layer("lang.parse"), ""},
        {"lang.sema_s", "s", Layer("lang.sema"), ""},
        {"ir.lower_s", "s", Layer("ir.lower"), ""},
        {"analysis.callgraph_s", "s", Layer("analysis.callgraph"), ""},
        {"pointsto.solve_s", "s", Layer("pointsto.solve"), ""},
        {"ir.print_s", "s", Layer("ir.print"), ""},
        {"infer.run_s", "s", Layer("infer.run"), ""},
        {"infer.jobs_used", "count", Count(Stats.JobsUsed), ""},
        {"infer.summary_evaluations", "count", Count(SS.Evaluations), ""},
        {"infer.scc_fixpoint_rounds", "count", Count(SS.SccFixpointRounds),
         ""},
        {"infer.transfer_memo_hit_ratio", "ratio",
         ratio(Stats.TransferCacheHits,
               Stats.TransferCacheHits + Stats.TransferCacheMisses),
         ""},
        {"infer.gen_memo_hit_ratio", "ratio",
         ratio(Stats.GenCacheHits, Stats.GenCacheHits + Stats.GenCacheMisses),
         ""},
        {"locks.interner_hit_ratio", "ratio",
         ratio(Stats.InternerHits, Stats.InternerHits + Stats.InternerNodes),
         ""},
        {"infer.arena_bytes", "bytes", Count(Stats.ArenaBytes), ""},
    };
    return std::move(R);
  }

private:
  uint64_t programSeed(unsigned J) const { return PoolSize * Plan.Seed + J; }

  /// One cold compile() of the pool's next program and its output check;
  /// returns the digest of its transformed program and its time in
  /// \p Seconds.
  uint64_t compileOnce(double *Seconds = nullptr) {
    unsigned Program = Next;
    Next = (Next + 1) % PoolSize;
    ++Id;
    ++R.Attempted;
    auto T0 = Clock::now();
    std::unique_ptr<Compilation> C =
        compile(Sources[Program], compileOptions());
    double Elapsed = seconds(T0, Clock::now());
    Untraced[Program].push_back(Elapsed);
    ++Compiles;
    if (Seconds)
      *Seconds = Elapsed;
    uint64_t Digest = C->ok() ? fnv1a(C->report()) : 0;
    if (Digest != Expected[Program])
      R.fail("compile " + std::to_string(Id) + " of program seed " +
             std::to_string(programSeed(Program)) + ": report digest " +
             hex64(Digest) + " != expected " + hex64(Expected[Program]));
    return C->ok() ? fnv1a(C->transformedText()) : 0;
  }

  LegPlan Plan;
  LegResult R;
  std::vector<std::string> Sources; ///< the pool
  std::vector<uint64_t> Expected;   ///< report digest per program
  unsigned Next = 0;                ///< the pool's next program
  uint64_t Id = 0;
  /// compile() seconds per program of the pool.
  std::vector<std::vector<double>> Untraced =
      std::vector<std::vector<double>>(PoolSize);
  unsigned Compiles = 0;
  std::vector<SpanLog::Root> Roots; ///< traced run: the traced chains
  InferenceStats Stats;
};

} // namespace

std::unique_ptr<LegRunner> makeCompileLeg(const LegPlan &Plan,
                                          const Corruption &Bad) {
  return std::make_unique<CompileLeg>(Plan, Bad);
}

} // namespace perfbench
