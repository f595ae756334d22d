//===--- Bench.h - Shared pieces of the layered benchmark -------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three legs of the benchmark (compile, runtime, service) share:
/// the clock, sample statistics with the "tail" rule, the in-memory span
/// log of the traced run, and the per-leg result record main() prints.
///
/// Tail rule: a latency's tail is the highest percentile of the ladder
/// below that still has at least ten samples beyond it; the percentile
/// and the sample count are printed next to the value.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "analysis/CallGraph.h"
#include "ir/Ir.h"
#include "lang/Ast.h"
#include "pointsto/Steensgaard.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// How one leg runs in this invocation.
struct LegPlan {
  bool Trace = false; ///< traced run: per-layer metrics, spans
  uint64_t Seed = 1;  ///< leg-specific seed derived from --seed
  /// Compile leg: "program-seed digest" lines of recorded report digests.
  std::string DigestFile;
};

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

struct Tail {
  double Percentile = 0; ///< e.g. 99 for p99
  double Value = 0;
  size_t Samples = 0;
  size_t Beyond = 0; ///< samples strictly above the percentile's rank
};

/// See the file comment. Falls back to p50 below 20 samples.
inline Tail tailOf(std::vector<double> V) {
  static const double Ladder[] = {99.99, 99.9, 99.5, 99, 98, 95,
                                  90,    80,   75,   50};
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  for (double P : Ladder) {
    // Nearest-rank percentile: the value at rank ceil(P/100 * N).
    size_t Rank = static_cast<size_t>(P / 100.0 * V.size() + 0.999999);
    Rank = std::clamp<size_t>(Rank, 1, V.size());
    size_t Beyond = V.size() - Rank;
    if (Beyond >= 10 || P == 50) {
      T.Percentile = P;
      T.Value = V[Rank - 1];
      T.Beyond = Beyond;
      return T;
    }
  }
  return T;
}

inline uint64_t fnv1a(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

inline std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// One timed call into a layer. Parent is an index into the same log
/// (-1 for a root); Id names the compile, request or section the span
/// belongs to.
struct Span {
  const char *Name = "";
  uint64_t Id = 0;
  int64_t Parent = -1;
  double Start = 0; ///< seconds since the log's epoch
  double End = 0;
};

/// The instant every span log measures from, so the spans of all legs
/// share one time axis.
inline Clock::time_point processEpoch() {
  static const Clock::time_point Epoch = Clock::now();
  return Epoch;
}

/// Spans kept in memory for the whole run and written out at the end.
/// Not thread-safe: each thread of the runtime leg keeps its own and
/// they are appended afterwards.
class SpanLog {
public:
  SpanLog() : Epoch(processEpoch()) {}

  double now() const { return seconds(Epoch, Clock::now()); }

  /// Records a finished span; returns its index for use as a parent, or
  /// -1 for a dropped span.
  int64_t add(const char *Name, uint64_t Id, int64_t Parent, double Start,
              double End) {
    if (Dropped && std::string_view(Name) == Dropped)
      return -1;
    Spans.push_back({Name, Id, Parent, Start, End});
    return static_cast<int64_t>(Spans.size()) - 1;
  }
  /// Opens a span whose end is set by close().
  int64_t open(const char *Name, uint64_t Id, int64_t Parent = -1) {
    return add(Name, Id, Parent, now(), 0);
  }
  void close(int64_t Idx) {
    if (Idx >= 0)
      Spans[Idx].End = now();
  }
  /// Moves \p Other's spans in, re-basing parent indices.
  void append(const SpanLog &Other) {
    int64_t Base = static_cast<int64_t>(Spans.size());
    for (Span S : Other.Spans) {
      if (S.Parent >= 0)
        S.Parent += Base;
      Spans.push_back(S);
    }
  }
  /// Self test: spans named \p Name are not recorded, as if the benchmark
  /// had failed to time that layer.
  void drop(const char *Name) { Dropped = Name; }

  /// The total time per child span name under one root span.
  struct Root {
    std::map<std::string, double> Children;
    double covered() const {
      double Sum = 0;
      for (auto &[Name, S] : Children)
        Sum += S;
      return Sum;
    }
  };
  /// The root spans named \p Name from index \p First on.
  std::vector<Root> roots(const char *Name, size_t First = 0) const {
    std::vector<Root> Out;
    std::map<int64_t, size_t> Index; // span index -> position in Out
    for (size_t I = First; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (S.Parent < 0) {
        if (std::string_view(S.Name) == Name) {
          Index[static_cast<int64_t>(I)] = Out.size();
          Out.emplace_back();
        }
        continue;
      }
      auto It = Index.find(S.Parent);
      if (It != Index.end())
        Out[It->second].Children[S.Name] += S.End - S.Start;
    }
    return Out;
  }

  const std::vector<Span> &spans() const { return Spans; }
  Clock::time_point epoch() const { return Epoch; }

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  const char *Dropped = nullptr;
};

/// Median over roots of each layer's time under one root (a layer that
/// runs twice in a root, like the service chain's two prints, counts as
/// their sum).
inline double layerMedian(const std::vector<SpanLog::Root> &Roots,
                          const std::string &Layer) {
  std::vector<double> V;
  for (const SpanLog::Root &R : Roots) {
    auto It = R.Children.find(Layer);
    if (It != R.Children.end())
      V.push_back(It->second);
  }
  return median(V);
}

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  /// Printed beside the value (tail percentile and sample counts).
  std::string Note;
};

inline Metric tailMetric(const std::string &Name, const std::string &Unit,
                         const std::vector<double> &V) {
  Tail T = tailOf(V);
  char Note[96];
  std::snprintf(Note, sizeof(Note), "p%g of %zu samples, %zu beyond",
                T.Percentile, T.Samples, T.Beyond);
  return {Name, Unit, T.Value, Note};
}

/// The tail of each group (a round of the runtime leg, a fixed number of
/// daemon requests), median over the groups: one slow group cannot move
/// it, and with groups of a fixed size the tail's percentile stays the
/// same however many samples a run collects. Over all samples it would
/// step down the ladder when a slow stretch of the host leaves fewer.
inline Metric groupTailMetric(const std::string &Name, const std::string &Unit,
                              const std::vector<std::vector<double>> &Groups) {
  std::vector<double> Tails, Pcts;
  size_t Samples = 0;
  for (const std::vector<double> &G : Groups) {
    Tail T = tailOf(G);
    Tails.push_back(T.Value);
    Pcts.push_back(T.Percentile);
    Samples += T.Samples;
  }
  char Note[128];
  std::snprintf(Note, sizeof(Note),
                "median over %zu groups of each group's p%g, %zu samples",
                Groups.size(), median(Pcts), Samples);
  return {Name, Unit, median(Tails), Note};
}

/// \p V cut into consecutive groups of \p Size samples, a short last group
/// dropped; one group of all of \p V when it holds fewer than \p Size.
inline std::vector<std::vector<double>> groupsOf(const std::vector<double> &V,
                                                 size_t Size) {
  if (V.size() < Size)
    return {V};
  std::vector<std::vector<double>> Groups;
  for (size_t I = 0; I + Size <= V.size(); I += Size)
    Groups.emplace_back(V.begin() + I, V.begin() + I + Size);
  return Groups;
}

/// Runs \p F, one call into a layer, as a child span of \p Root when
/// \p Log is set.
template <typename Fn>
auto layerCall(SpanLog *Log, const char *Name, uint64_t Id, int64_t Root,
               Fn &&F) {
  int64_t S = Log ? Log->open(Name, Id, Root) : -1;
  auto Result = F();
  if (Log)
    Log->close(S);
  return Result;
}

/// The front half of the pipeline, as lockin::compile() runs it.
struct FrontHalf {
  lockin::DiagnosticEngine Diags;
  std::unique_ptr<lockin::Program> Ast;
  std::unique_ptr<lockin::ir::IrModule> Module;
  std::unique_ptr<lockin::analysis::CallGraph> CG;
  std::unique_ptr<lockin::PointsToAnalysis> PT;
  bool ok() const { return PT != nullptr; }
};

/// Parse → sema → lower → call graph → points-to on \p Source, one
/// layerCall each; stops at the first layer that fails.
void runFrontHalf(const std::string &Source, FrontHalf &F, SpanLog *Log,
                  uint64_t Id, int64_t Root);

/// Set-ups per leg; the leg reports their median.
constexpr unsigned SetupRepeats = 5;

/// The traced run's accounting check (see README.md): the layer spans under
/// a traced root must add up to the untraced end-to-end time of the same
/// work plus the tracing overhead. One entry per paired measurement (a
/// compile step, a pair of runtime rounds, a replayed warm request), in
/// seconds per root.
struct Accounting {
  std::vector<double> EndToEnd; ///< untraced: compile(), section, analyze()
  std::vector<double> Untraced; ///< the layer chain without spans
  std::vector<double> Traced;   ///< the layer chain with spans (its root)
  std::vector<double> Layers;   ///< the layer spans under that root, summed
  std::string Note;             ///< what the four are, for the printout
  /// Share of the end-to-end time by which the layers may miss it either
  /// way: the end-to-end and the chain runs are different samples.
  double NoiseShare = 0.05;

  void add(double E, double U, double T, double L) {
    EndToEnd.push_back(E);
    Untraced.push_back(U);
    Traced.push_back(T);
    Layers.push_back(L);
  }
};

/// What a leg hands back to main().
struct LegResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Median set-up time of the leg (it sets up several times).
  double SetupSeconds = 0;
  std::vector<Metric> EndToEnd; ///< untraced run
  std::vector<Metric> Layers;   ///< traced run
  Accounting Account;           ///< traced run
  SpanLog Spans;
  /// Human-readable reasons for failed operations (first few kept).
  std::vector<std::string> Failures;

  void fail(std::string Why) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(std::move(Why));
  }
};

/// Deliberately corrupted expectations for the self test: each leg's
/// output check must reject its corrupted expectation, and the accounting
/// check must reject a traced run that leaves one layer untimed.
struct Corruption {
  bool CompileDigest = false;
  bool RuntimePresence = false;
  bool ServiceReference = false;
  const char *DropSpan = nullptr;
};

/// One leg. Construction does (and times) the set-up; main() interleaves
/// the legs' steps over the whole run so that every leg's samples span
/// the same stretch of time; finish() runs the output checks and
/// computes the metrics.
class LegRunner {
public:
  virtual ~LegRunner() = default;
  /// One unit of measuring work: a compile, a round, a session burst.
  virtual void step() = 0;
  /// True once the leg has the minimum samples its metrics need.
  virtual bool enough() const = 0;
  virtual LegResult finish() = 0;
};

std::unique_ptr<LegRunner> makeCompileLeg(const LegPlan &Plan,
                                          const Corruption &Bad);
std::unique_ptr<LegRunner> makeRuntimeLeg(const LegPlan &Plan,
                                          const Corruption &Bad);
std::unique_ptr<LegRunner> makeServiceLeg(const LegPlan &Plan,
                                          const Corruption &Bad,
                                          const std::string &SocketPath);

/// The report digest of the compile leg's program of seed \p Seed (one of
/// the pool that --seed picks).
uint64_t compileDigest(uint64_t Seed);

/// VmHWM of this process in MiB (0 if unavailable).
double peakRssMb();

/// The recorded report digest for program seed \p Seed in \p File
/// ("seed digest" lines); false when the seed has none.
bool recordedDigest(const std::string &File, uint64_t Seed,
                    uint64_t &Digest);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
