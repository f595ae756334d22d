//===--- Main.cpp - The layered benchmark's entry point ----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload W --seed N --seconds S --trace 0|1 [--commit C]
///           [--digests FILE]
/// perfbench --self-test [--digests FILE]
/// perfbench --print-digests FIRST LAST
///
/// Every run executes the three legs (compile, runtime, service). The
/// workload names the focus leg (compile or service), which gets half of
/// --seconds; the other two get a quarter each, so all end-to-end metrics
/// are measured on every workload (see README.md). The legs' steps are
/// interleaved over the whole run, so a slow stretch of the host lands on
/// all of them alike.
/// The last stdout line is the result object; the lines before it are a
/// provenance stamp and human-readable tables. A JSON copy of the result
/// with provenance, notes and (traced runs) the spans goes to
/// perfbench-results/ in the working directory.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Obs.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <unistd.h>

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB
  return 0;
}

namespace {

const char *const LegNames[] = {"compile", "runtime", "service"};

/// Each workload and the leg it focuses on.
struct Workload {
  const char *Name;
  int FocusLeg;
};
const Workload Workloads[] = {{"compile_mega", 0}, {"service_session", 2}};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 0;
  int Trace = -1;
  std::string Commit = "unknown";
  std::string Digests = "digests.txt";
  bool SelfTest = false;
  /// --print-digests: program seed range whose report digests to print.
  uint64_t DigestFirst = 0, DigestLast = 0;
  bool PrintDigests = false;
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile_mega|service_session --seed N "
               "--seconds S --trace 0|1 [--commit C] [--digests FILE]\n"
               "       perfbench --self-test [--digests FILE]\n"
               "       perfbench --print-digests FIRST LAST\n",
               Why);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (Flag == "--print-digests" && I + 2 < Argc) {
      try {
        A.DigestFirst = std::stoull(Argv[++I]);
        A.DigestLast = std::stoull(Argv[++I]);
      } catch (const std::exception &) {
        Err = "bad seed range";
        return false;
      }
      A.PrintDigests = true;
      continue;
    }
    if (I + 1 >= Argc) {
      Err = "missing value for " + Flag;
      return false;
    }
    std::string V = Argv[++I];
    try {
      size_t Used = 0;
      if (Flag == "--workload")
        A.Workload = V, Used = V.size();
      else if (Flag == "--seed")
        A.Seed = std::stoull(V, &Used);
      else if (Flag == "--seconds")
        A.Seconds = std::stod(V, &Used);
      else if (Flag == "--trace")
        A.Trace = std::stoi(V, &Used);
      else if (Flag == "--commit")
        A.Commit = V, Used = V.size();
      else if (Flag == "--digests")
        A.Digests = V, Used = V.size();
      else {
        Err = "unknown flag " + Flag;
        return false;
      }
      if (Used != V.size()) {
        Err = "bad value for " + Flag;
        return false;
      }
    } catch (const std::exception &) {
      Err = "bad value for " + Flag;
      return false;
    }
  }
  if (A.SelfTest || A.PrintDigests)
    return true;
  bool Known = false;
  for (const Workload &W : Workloads)
    Known |= A.Workload == W.Name;
  if (!Known) {
    Err = "unknown workload '" + A.Workload + "'";
    return false;
  }
  if (!(A.Seconds >= 1 && A.Seconds <= 100) || (A.Trace != 0 && A.Trace != 1)) {
    Err = "--seconds must be in [1, 100] and --trace 0 or 1";
    return false;
  }
  return true;
}

/// Leg seeds: the compile leg uses --seed itself (its programs' seeds,
/// which digests.txt is keyed by, derive from it); the others mix in their
/// leg number.
uint64_t legSeed(uint64_t Seed, int Leg) {
  return Leg == 0 ? Seed : Seed * 0x9e3779b97f4a7c15ULL + 0x51ed27 * Leg;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\', Out += C;
    else if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

/// Self time and count per span name, and the total time of root spans.
struct LayerTable {
  struct Row {
    double SelfSeconds = 0;
    uint64_t Count = 0;
  };
  std::map<std::string, Row> Rows;
  double RootSeconds = 0;
  uint64_t Roots = 0;
};

LayerTable layerTable(const SpanLog &Log) {
  const std::vector<Span> &Spans = Log.spans();
  std::vector<double> ChildSum(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSum[S.Parent] += S.End - S.Start;
  LayerTable T;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    LayerTable::Row &Row = T.Rows[S.Name];
    Row.SelfSeconds += S.End - S.Start - ChildSum[I];
    ++Row.Count;
    if (S.Parent < 0) {
      T.RootSeconds += S.End - S.Start;
      ++T.Roots;
    }
  }
  return T;
}

/// The accounting check's figures, medians over the paired measurements.
struct AccountingCheck {
  double EndToEnd = 0, Layers = 0, Overhead = 0;
  /// Layers minus (end to end + overhead): work the layers miss (< 0)
  /// or add beyond the tracing overhead (> 0).
  double Residual = 0;
  double Allowed = 0;
  bool Ok = false;
};

AccountingCheck accountingCheck(const Accounting &A) {
  std::vector<double> Overhead, Residual;
  for (size_t I = 0; I < A.EndToEnd.size(); ++I) {
    Overhead.push_back(A.Traced[I] - A.Untraced[I]);
    Residual.push_back(A.Layers[I] - A.EndToEnd[I] - Overhead.back());
  }
  AccountingCheck C;
  C.EndToEnd = median(A.EndToEnd);
  C.Layers = median(A.Layers);
  C.Overhead = median(Overhead);
  C.Residual = median(Residual);
  C.Allowed = A.NoiseShare * C.EndToEnd;
  C.Ok = !A.EndToEnd.empty() && C.Residual >= -C.Allowed &&
         C.Residual <= C.Allowed;
  return C;
}

void writeSpans(std::ofstream &Out, const SpanLog &Log, int Leg) {
  bool First = true;
  for (const Span &S : Log.spans()) {
    Out << (First ? "" : ",\n") << "{\"leg\":\"" << LegNames[Leg]
        << "\",\"name\":\"" << S.Name << "\",\"id\":" << S.Id
        << ",\"parent\":" << S.Parent
        << ",\"start_s\":" << jsonNumber(S.Start)
        << ",\"end_s\":" << jsonNumber(S.End) << "}";
    First = false;
  }
}

std::unique_ptr<LegRunner> makeLeg(int Leg, const LegPlan &Plan,
                                   const Corruption &Bad,
                                   const std::string &Socket) {
  if (Leg == 0)
    return makeCompileLeg(Plan, Bad);
  if (Leg == 1)
    return makeRuntimeLeg(Plan, Bad);
  return makeServiceLeg(Plan, Bad, Socket);
}

int selfTest(const Args &A) {
  // Each output check must pass on honest expectations and fail on
  // corrupted ones; the accounting check must pass on an honest traced
  // run and fail when one layer goes untimed. Short legs keep this quick.
  struct Case {
    const char *Name;
    int Leg;
    bool Trace;
    Corruption Bad;
  };
  const Case Cases[] = {
      {"compile: honest, traced", 0, true, {}},
      {"compile: corrupted digest", 0, false, {true, false, false}},
      {"compile: infer.run untimed", 0, true,
       {false, false, false, "infer.run"}},
      {"runtime: honest, traced", 1, true, {}},
      {"runtime: corrupted presence", 1, false, {false, true, false}},
      {"runtime: acquire untimed", 1, true,
       {false, false, false, "runtime.acquire"}},
      {"service: honest, traced", 2, true, {}},
      {"service: corrupted reference", 2, false, {false, false, true}},
      {"service: prints untimed", 2, true,
       {false, false, false, "ir.print"}},
  };
  std::string Socket = "perfbench-selftest-" + std::to_string(::getpid()) +
                       ".sock";
  int Bad = 0;
  for (const Case &C : Cases) {
    LegPlan Plan;
    Plan.Trace = C.Trace;
    Plan.Seed = legSeed(1, C.Leg);
    Plan.DigestFile = A.Digests;
    std::unique_ptr<LegRunner> Leg = makeLeg(C.Leg, Plan, C.Bad, Socket);
    while (!Leg->enough())
      Leg->step();
    LegResult R = Leg->finish();
    bool Corrupted = C.Bad.CompileDigest || C.Bad.RuntimePresence ||
                     C.Bad.ServiceReference;
    bool Pass = R.Attempted > 0 && (Corrupted ? R.Failed > 0 : R.Failed == 0);
    AccountingCheck Acc = accountingCheck(R.Account);
    if (C.Trace)
      Pass &= Acc.Ok == !C.Bad.DropSpan;
    std::printf("self-test %-30s attempted %llu failed %llu", C.Name,
                static_cast<unsigned long long>(R.Attempted),
                static_cast<unsigned long long>(R.Failed));
    if (C.Trace)
      std::printf(" residual %.3g s allowed %.3g s", Acc.Residual,
                  Acc.Allowed);
    std::printf(": %s\n", Pass ? "ok" : "WRONG");
    Bad += Pass ? 0 : 1;
  }
  std::printf("self-test: %s\n", Bad ? "FAILED" : "passed");
  return Bad ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err))
    return usage(Err.c_str());
  if (A.SelfTest)
    return selfTest(A);
  if (A.PrintDigests) {
    for (uint64_t Seed = A.DigestFirst; Seed <= A.DigestLast; ++Seed)
      std::printf("%llu %s\n", static_cast<unsigned long long>(Seed),
                  hex64(compileDigest(Seed)).c_str());
    return 0;
  }

  int FocusLeg = 0;
  for (const Workload &W : Workloads)
    if (A.Workload == W.Name)
      FocusLeg = W.FocusLeg;
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());

  std::string Provenance =
      "{\"workload\":" + jsonString(A.Workload) +
      ",\"seed\":" + std::to_string(A.Seed) +
      ",\"seconds\":" + jsonNumber(A.Seconds) +
      ",\"trace\":" + std::to_string(A.Trace) +
      ",\"nproc\":" + std::to_string(Nproc) +
      ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
      ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
      ",\"commit\":" + jsonString(A.Commit) +
      ",\"lockin_obs\":" + (lockin::obs::kEnabled ? "true" : "false") + "}";
  std::printf("# provenance %s\n", Provenance.c_str());

  std::string Socket = "perfbench-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<LegRunner> Legs[3];
  for (int Leg = 0; Leg < 3; ++Leg) {
    LegPlan Plan;
    Plan.Trace = A.Trace == 1;
    Plan.Seed = legSeed(A.Seed, Leg);
    Plan.DigestFile = A.Digests;
    Legs[Leg] = makeLeg(Leg, Plan, Corruption{}, Socket);
  }
  // Deficit scheduling: the next step goes to the leg furthest behind its
  // share of the elapsed time; after --seconds, legs short of their
  // minimum samples keep stepping, until a hard deadline that keeps the
  // run inside the 170 s run.py allows.
  double Used[3] = {0, 0, 0};
  double Deadline = A.Seconds + 60;
  auto Start = Clock::now();
  for (;;) {
    double Elapsed = seconds(Start, Clock::now());
    if (Elapsed >= Deadline)
      break;
    int Pick = -1;
    double Best = 0;
    for (int Leg = 0; Leg < 3; ++Leg) {
      if (Elapsed >= A.Seconds && Legs[Leg]->enough())
        continue;
      double Share = Leg == FocusLeg ? 0.5 : 0.25;
      double Deficit = Share * Elapsed - Used[Leg];
      if (Pick < 0 || Deficit > Best)
        Pick = Leg, Best = Deficit;
    }
    if (Pick < 0)
      break;
    auto T0 = Clock::now();
    Legs[Pick]->step();
    Used[Pick] += seconds(T0, Clock::now());
  }
  LegResult Results[3];
  for (int Leg = 0; Leg < 3; ++Leg) {
    bool Short = !Legs[Leg]->enough();
    Results[Leg] = Legs[Leg]->finish();
    if (Short)
      Results[Leg].fail("too few samples by the deadline");
  }

  uint64_t Attempted = 0, Failed = 0;
  double Setup = 0;
  std::vector<Metric> Metrics;
  for (int Leg = 0; Leg < 3; ++Leg) {
    LegResult &R = Results[Leg];
    Attempted += R.Attempted;
    Failed += R.Failed;
    Setup += R.SetupSeconds;
    std::printf("# %-8s attempted %llu failed %llu setup %.4f s\n",
                LegNames[Leg], static_cast<unsigned long long>(R.Attempted),
                static_cast<unsigned long long>(R.Failed), R.SetupSeconds);
    for (const std::string &F : R.Failures)
      std::printf("#   failure: %s\n", F.c_str());
  }

  if (A.Trace == 0) {
    Metrics.push_back({"setup_s", "s", Setup, "sum of per-leg median set-ups"});
    for (LegResult &R : Results)
      for (Metric &M : R.EndToEnd)
        Metrics.push_back(M);
  } else {
    // A layer measured by two legs (the front half runs in both the
    // compile and the service leg) is reported from the focus leg when it
    // measures it, else from the first leg that does.
    std::set<std::string> Seen;
    auto Take = [&](int Leg) {
      for (Metric &M : Results[Leg].Layers)
        if (Seen.insert(M.Name).second)
          Metrics.push_back(M);
    };
    Take(FocusLeg);
    for (int Leg = 0; Leg < 3; ++Leg)
      Take(Leg);

    std::printf("# traced run: self time per layer\n");
    bool Accounted = true;
    for (int Leg = 0; Leg < 3; ++Leg) {
      LegResult &R = Results[Leg];
      LayerTable T = layerTable(R.Spans);
      std::printf("#  %s leg (%llu root spans, %.4f s)\n", LegNames[Leg],
                  static_cast<unsigned long long>(T.Roots), T.RootSeconds);
      std::printf("#   %-24s %12s %10s %8s\n", "span", "self_s", "count",
                  "ratio");
      for (auto &[Name, Row] : T.Rows)
        std::printf("#   %-24s %12.6f %10llu %8.4f\n", Name.c_str(),
                    Row.SelfSeconds, static_cast<unsigned long long>(Row.Count),
                    T.RootSeconds > 0 ? Row.SelfSeconds / T.RootSeconds : 0);
      AccountingCheck Acc = accountingCheck(R.Account);
      Accounted &= Acc.Ok;
      std::printf("#   %s\n", R.Account.Note.c_str());
      std::printf("#   over %zu pairs: end to end %.9f s, layers %.9f s, "
                  "tracing overhead %.9f s\n",
                  R.Account.EndToEnd.size(), Acc.EndToEnd, Acc.Layers,
                  Acc.Overhead);
      std::printf("#   layers - (end to end + overhead) = %.9f s, allowed "
                  "+-%.9f s: %s\n",
                  Acc.Residual, Acc.Allowed,
                  Acc.Ok ? "accounted" : "NOT ACCOUNTED");
    }
    if (!Accounted) {
      ++Failed;
      std::printf("# layer self times do not account for their spans\n");
    }
  }

  std::printf("# %-40s %16s %-6s %s\n", "metric", "value", "unit", "note");
  for (const Metric &M : Metrics)
    std::printf("# %-40s %16.6f %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());

  std::string MetricsJson;
  for (const Metric &M : Metrics)
    MetricsJson += (MetricsJson.empty() ? "" : ", ") + jsonString(M.Name) +
                   ": {\"value\": " + jsonNumber(M.Value) +
                   ", \"unit\": " + jsonString(M.Unit) + "}";
  std::string Result = "{\"correct\": " +
                       std::string(Failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(Attempted) +
                       ", \"failed\": " + std::to_string(Failed) +
                       ", \"metrics\": {" + MetricsJson + "}}";

  // The full record: provenance, notes, and the spans of a traced run.
  std::error_code Ec;
  std::filesystem::create_directories("perfbench-results", Ec);
  std::string Base = "perfbench-results/" + A.Workload + "-seed" +
                     std::to_string(A.Seed) + "-trace" +
                     std::to_string(A.Trace);
  {
    std::ofstream Out(Base + ".json");
    Out << "{\"provenance\": " << Provenance << ",\n\"result\": " << Result
        << ",\n\"notes\": {";
    bool First = true;
    for (const Metric &M : Metrics) {
      Out << (First ? "" : ", ") << jsonString(M.Name) << ": "
          << jsonString(M.Note);
      First = false;
    }
    Out << "}}\n";
  }
  if (A.Trace == 1) {
    std::ofstream Out(Base + "-spans.json");
    Out << "[\n";
    bool First = true;
    for (int Leg = 0; Leg < 3; ++Leg) {
      if (Results[Leg].Spans.spans().empty())
        continue;
      if (!First)
        Out << ",\n";
      writeSpans(Out, Results[Leg].Spans, Leg);
      First = false;
    }
    Out << "\n]\n";
  }

  std::printf("%s\n", Result.c_str());
  std::fflush(stdout);
  return 0;
}
