//===--- ServiceLeg.cpp - A closed-loop daemon edit session ------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process service::Server with default options on a unix socket,
/// driven by two service::Client connections in a closed loop: each caller
/// waits for its reply, the way an editor or a CI job does. Four seeded
/// units of about 78 KB, shaped like bench_service's generate(), are primed
/// once in set-up; client c owns units c and c+2, so one unit's requests
/// stay in order. About three requests in four resubmit a unit unchanged
/// (all cache hits); the fourth flips a constant in one worker function, a
/// cumulative edit that re-analyzes only the dirty SCC cone. Requests ask
/// for k=9; nothing else is set.
///
/// Check: every response is ok and its report is the same as a cold
/// in-process compile() of the same text (equal FNV-1a 64 digests, as the
/// compile leg checks its reports).
///
/// The leg runs in half-second bursts. The traced run replays each
/// burst's requests right after it, one at a time, on an in-process
/// IncrementalAnalyzer primed the same way (the analyzer's own time, so
/// transport = round trip minus it), and on the warm ones runs the
/// analyzer's work again as a chain of public layer calls, without and
/// with spans.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Compiler.h"
#include "ir/IrPrinter.h"
#include "service/Client.h"
#include "service/Fingerprint.h"
#include "service/Incremental.h"
#include "service/Server.h"
#include "support/Rng.h"

#include <atomic>
#include <memory>
#include <thread>

using namespace lockin;
using namespace lockin::service;

namespace perfbench {
namespace {

constexpr unsigned K = 9;
constexpr unsigned NumUnits = 4;
constexpr unsigned NumClients = 2;
/// Unit shape: bench_service's --quick generate(8, 8, 6, 8), about 78 KB.
constexpr unsigned Workers = 8, SectionsPer = 8, Chains = 6, Depth = 8;

/// One unit: the shape is fixed, the seed picks the chain rotation and the
/// per-section constants; edits overwrite one constant.
struct Unit {
  std::string Name;
  unsigned Rotation = 0;
  std::vector<int64_t> Constants; ///< one per (worker, section)

  std::string text() const {
    std::string S = "struct node { node* next; int val; int aux; };\n";
    for (unsigned C = 0; C < Chains; ++C)
      S += "node* head" + std::to_string(C) + ";\n";
    S += "int gsum;\n"
         "int walk(node* p, int n) {\n"
         "  int s = 0;\n"
         "  while (p != null) { s = s + p->val; p->aux = s; p = p->next; }\n"
         "  return s + n;\n"
         "}\n"
         "int recB(node* p, int n) { if (n <= 0) { return 0; } "
         "if (p == null) { return n; } p->val = n; "
         "return recA(p->next, n - 1); }\n"
         "int recA(node* p, int n) { if (n <= 0) { return 0; } "
         "if (p == null) { return n; } gsum = gsum + p->val; "
         "return recB(p->next, n - 1); }\n";
    std::string D = std::to_string(Depth);
    for (unsigned W = 0; W < Workers; ++W) {
      S += "void worker" + std::to_string(W) + "() {\n";
      for (unsigned M = 0; M < SectionsPer; ++M) {
        S += "  atomic {\n    int t = " +
             std::to_string(Constants[W * SectionsPer + M]) +
             ";\n    int i = 0;\n    while (i < " + D +
             ") {\n      int j = 0;\n      while (j < " + D +
             ") {\n        int q = 0;\n        while (q < " + D +
             ") {\n          int r = 0;\n          while (r < " + D + ") {\n";
        for (unsigned C = 0; C < Chains; ++C) {
          std::string H =
              "head" + std::to_string((C + W + M + Rotation) % Chains);
          S += "            t = t + walk(" + H + ", r);\n";
          S += "            t = t + recA(" + H + ", 3);\n";
          S += "            if (" + H + " != null) { " + H + "->val = t; " +
               H + "->next->aux = t; }\n";
        }
        S += "            r = r + 1;\n          }\n          q = q + 1;\n"
             "        }\n        j = j + 1;\n      }\n"
             "      i = i + 1;\n    }\n    gsum = gsum + t;\n  }\n";
      }
      S += "}\n";
    }
    S += "int main() {\n";
    for (unsigned C = 0; C < Chains; ++C) {
      std::string H = "head" + std::to_string(C);
      S += "  " + H + " = new node;\n  " + H + "->next = new node;\n";
    }
    for (unsigned W = 0; W < Workers; ++W)
      S += "  spawn worker" + std::to_string(W) + "();\n";
    S += "  return 0;\n}\n";
    return S;
  }
};

std::vector<Unit> makeUnits(uint64_t Seed) {
  std::vector<Unit> Units(NumUnits);
  Rng R(Seed);
  for (unsigned U = 0; U < NumUnits; ++U) {
    Units[U].Name = "unit" + std::to_string(U);
    Units[U].Rotation = static_cast<unsigned>(R.below(Chains));
    for (unsigned I = 0; I < Workers * SectionsPer; ++I)
      Units[U].Constants.push_back(static_cast<int64_t>(R.below(1000)));
  }
  return Units;
}

/// One request of a client's stream, decided before the session starts.
struct Planned {
  unsigned Unit = 0;
  bool Edit = false;
  unsigned EditSlot = 0; ///< (worker, section) whose constant changes
};

std::vector<Planned> planClient(uint64_t Seed, unsigned Client,
                                size_t Count) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + Client + 1);
  std::vector<Planned> Plan(Count);
  for (size_t Block = 0; Block * 4 < Count; ++Block) {
    size_t EditAt = Block * 4 + R.below(4);
    for (size_t I = Block * 4; I < std::min(Count, Block * 4 + 4); ++I) {
      Plan[I].Unit = Client + NumClients * static_cast<unsigned>(I % 2);
      Plan[I].Edit = I == EditAt;
      Plan[I].EditSlot = static_cast<unsigned>(R.below(Workers * SectionsPer));
    }
  }
  return Plan;
}

/// A request as it happened.
struct Done {
  unsigned Unit = 0;
  bool Edit = false;
  /// The client's first request of a burst: checked and counted, but not
  /// timed, since the other legs ran just before it and left the daemon's
  /// caches cold — a cost of interleaving the legs, not one users pay.
  bool FirstOfBurst = false;
  size_t Text = 0; ///< index into the client's text snapshots
  double RoundTripMs = 0;
  unsigned Reanalyzed = 0;
};

/// What one client thread saw. Texts are kept as the unit they were
/// printed from and reports as their FNV-1a digests: whole texts and
/// reports would hold some 60 MB after a run, live during the compile leg's
/// compiles, so a faster daemon would read as a higher peak_rss_mb.
struct ClientLog {
  std::vector<Unit> Texts;
  /// Digests of the distinct reports received per text (normally one).
  std::vector<std::vector<uint64_t>> Reports;
  std::vector<Done> Requests;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
};

size_t addText(ClientLog &Log, const Unit &U) {
  Log.Texts.push_back(U);
  Log.Reports.emplace_back();
  return Log.Texts.size() - 1;
}

/// A client's state across bursts: its connection, its copy of the units
/// it edits, and where it is in its plan.
struct ClientState {
  Client Conn;
  std::vector<Unit> Units;
  std::vector<Planned> Plan;
  size_t Next = 0;
  size_t Current[NumUnits] = {}; ///< text index per unit
  std::string CurrentText[NumUnits]; ///< that text, printed
  int64_t NextConstant = 1000;
  ClientLog Log;
};

/// Sends the client's next requests until \p Deadline.
void runBurst(ClientState &S, Clock::time_point Deadline) {
  bool First = true;
  while (S.Next < S.Plan.size() && Clock::now() < Deadline) {
    const Planned &P = S.Plan[S.Next++];
    Unit &U = S.Units[P.Unit];
    if (P.Edit) {
      U.Constants[P.EditSlot] = S.NextConstant++;
      S.Current[P.Unit] = addText(S.Log, U);
      S.CurrentText[P.Unit] = U.text();
    }
    size_t Text = S.Current[P.Unit];
    Json Response;
    std::string Err;
    auto T0 = Clock::now();
    bool Sent =
        S.Conn.analyze(U.Name, S.CurrentText[P.Unit], Response, Err, K);
    double Ms = seconds(T0, Clock::now()) * 1e3;
    Done D{P.Unit, P.Edit, First, Text, Ms, 0};
    First = false;
    if (!Sent || !Response.getBool("ok")) {
      ++S.Log.Failed;
      if (S.Log.Failures.size() < 4)
        S.Log.Failures.push_back(
            "request " + std::to_string(S.Next) + ": " +
            (Sent ? Response.getString("error", "not ok") : Err));
    } else {
      D.Reanalyzed = static_cast<unsigned>(Response.getInt("cacheMisses"));
      uint64_t Report = fnv1a(Response.getString("report", ""));
      std::vector<uint64_t> &Seen = S.Log.Reports[Text];
      if (std::find(Seen.begin(), Seen.end(), Report) == Seen.end())
        Seen.push_back(Report);
    }
    S.Log.Requests.push_back(D);
  }
}

/// What a run of the warm chain produced: its seconds, freeing included
/// as in the analyzer, and its report.
struct ChainOutcome {
  double Seconds = 0;
  std::string Report;
};

/// IncrementalAnalyzer::analyze on a warm request (every section a cache
/// hit on \p Cache), one public call per span under a "service.layers"
/// root when \p Log is set: the front half and the transform print that
/// its compile(InferLocks=false) runs, the fingerprint, the cache pass
/// (section keys and lookups), the inference engine it constructs, the
/// render (print and report lines), and freeing it all. Not covered: the
/// analyzer's dirty-cone accounting and snapshot, a few map operations.
ChainOutcome warmChain(const std::string &Source, SummaryCache &Cache,
                       SpanLog *Log, uint64_t Id) {
  ChainOutcome Out;
  auto Start = Clock::now();
  int64_t Root = Log ? Log->open("service.layers", Id) : -1;
  auto F = std::make_unique<FrontHalf>();
  runFrontHalf(Source, *F, Log, Id, Root);
  if (F->ok()) {
    const ir::IrModule &M = *F->Module;
    std::string Transformed = layerCall(Log, "ir.print", Id, Root, [&] {
      return ir::printIrModule(M, [](uint32_t) { return std::string(); });
    });
    auto FP = layerCall(Log, "service.fingerprint", Id, Root, [&] {
      return std::make_unique<ModuleFingerprint>(M, *F->CG, *F->PT);
    });
    std::vector<const ir::IrFunction *> Owner(M.numAtomicSections());
    std::vector<SectionSummary> Hits(M.numAtomicSections());
    layerCall(Log, "service.cache", Id, Root, [&] {
      for (const auto &Fn : M.functions()) {
        const auto &Atomics = Fn->atomicSections();
        for (unsigned Ord = 0; Ord < Atomics.size(); ++Ord) {
          uint32_t Section = Atomics[Ord]->sectionId();
          Owner[Section] = Fn.get();
          Cache.lookup(FP->sectionKey(Fn.get(), Ord, K), Hits[Section]);
        }
      }
      return 0;
    });
    auto Inference = layerCall(Log, "infer.setup", Id, Root, [&] {
      InferenceOptions IO;
      IO.K = K;
      return std::make_unique<LockInference>(M, *F->PT, *F->CG, IO);
    });
    Out.Report = layerCall(Log, "ir.print", Id, Root, [&] {
      return ir::printIrModule(
          M, [&](uint32_t Section) { return Hits[Section].text(); });
    });
    layerCall(Log, "service.report", Id, Root, [&] {
      LockCensus Census;
      for (uint32_t Section = 0; Section < Hits.size(); ++Section) {
        Out.Report += "; section #" + std::to_string(Section) + " in " +
                      (Owner[Section] ? Owner[Section]->name() : "?") + ": " +
                      Hits[Section].text() + "\n";
        Census += Hits[Section].Census;
      }
      char Line[96];
      std::snprintf(Line, sizeof(Line),
                    "; locks: fine-ro=%u fine-rw=%u coarse-ro=%u "
                    "coarse-rw=%u\n",
                    Census.FineRO, Census.FineRW, Census.CoarseRO,
                    Census.CoarseRW);
      Out.Report += Line;
      return 0;
    });
    layerCall(Log, "pipeline.free", Id, Root, [&] {
      Inference.reset();
      FP.reset();
      std::string().swap(Transformed);
      F.reset();
      return 0;
    });
  }
  Out.Seconds = seconds(Start, Clock::now());
  if (Log)
    Log->close(Root);
  return Out;
}

/// A started server on its own accept thread; shuts down on destruction.
class RunningServer {
public:
  explicit RunningServer(const std::string &Socket) {
    ServerOptions Opts;
    Opts.UnixSocketPath = Socket;
    S = std::make_unique<Server>(Opts);
    if (!S->start(Err)) {
      S.reset();
      return;
    }
    Accept = std::thread([this] { S->run(); });
  }
  ~RunningServer() {
    if (!S)
      return;
    S->requestShutdown();
    Accept.join();
  }
  RunningServer(const RunningServer &) = delete;
  RunningServer &operator=(const RunningServer &) = delete;

  bool ok() const { return S != nullptr; }
  const std::string &error() const { return Err; }

private:
  std::unique_ptr<Server> S;
  std::thread Accept;
  std::string Err;
};

uint64_t counterOf(const std::string &Socket, const char *Op,
                   const char *Object, const char *Name) {
  Client C;
  std::string Err;
  Json Req = Json::object(), Resp;
  Req.set("op", Json::string(Op));
  if (!C.connectUnix(Socket, Err) || !C.call(Req, Resp, Err))
    return 0;
  const Json *O = Resp.get(Object);
  return O ? O->getUint(Name) : 0;
}

class ServiceLeg : public LegRunner {
public:
  ServiceLeg(const LegPlan &Plan, const Corruption &Bad,
             const std::string &Socket)
      : Plan(Plan), Bad(Bad), Socket(Socket) {
    if (Bad.DropSpan)
      R.Spans.drop(Bad.DropSpan);
    // Set-up: generate the units, start the daemon, prime every unit once
    // (and the in-process mirror for the traced replay).
    std::vector<double> Setups;
    for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
      Live.reset();
      auto T0 = Clock::now();
      Units = makeUnits(Plan.Seed);
      Live = std::make_unique<RunningServer>(Socket);
      if (!Live->ok()) {
        R.fail("server start: " + Live->error());
        Live.reset();
        return;
      }
      Client C;
      std::string Err;
      if (!C.connectUnix(Socket, Err)) {
        R.fail("connect: " + Err);
        Live.reset();
        return;
      }
      for (const Unit &U : Units) {
        Json Resp;
        if (!C.analyze(U.Name, U.text(), Resp, Err, K) ||
            !Resp.getBool("ok")) {
          R.fail("priming " + U.Name + " failed");
          Live.reset();
          return;
        }
      }
      Setups.push_back(seconds(T0, Clock::now()));
    }
    R.SetupSeconds = median(Setups);
    if (Plan.Trace) {
      ServerOptions Defaults;
      MirrorCache = std::make_unique<SummaryCache>(Defaults.CacheCapacity,
                                                   Defaults.CacheShards);
      Mirror = std::make_unique<IncrementalAnalyzer>(*MirrorCache);
      for (const Unit &U : Units)
        Mirror->analyze(U.Name, U.text(), params());
    }
    Hits0 = counterOf(Socket, "stats", "cache", "hits");
    Misses0 = counterOf(Socket, "stats", "cache", "misses");
    Overloaded0 = counterOf(Socket, "metrics", "counters", "service.overloaded");
    for (unsigned C = 0; C < NumClients; ++C) {
      auto S = std::make_unique<ClientState>();
      std::string Err;
      if (!S->Conn.connectUnix(Socket, Err))
        R.fail("connect: " + Err);
      S->Units = Units;
      // Generous: nobody gets through a request per millisecond.
      S->Plan = planClient(Plan.Seed, C, 600000);
      for (unsigned U = 0; U < NumUnits; ++U) {
        S->Current[U] = addText(S->Log, Units[U]);
        S->CurrentText[U] = Units[U].text();
      }
      Clients.push_back(std::move(S));
    }
  }

  void step() override {
    if (!Live)
      return;
    std::vector<size_t> First;
    for (auto &C : Clients)
      First.push_back(C->Log.Requests.size());
    auto Begin = Clock::now();
    auto Deadline = Begin + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(BurstSeconds));
    std::vector<std::thread> Threads;
    for (auto &C : Clients)
      Threads.emplace_back(runBurst, std::ref(*C), Deadline);
    for (std::thread &T : Threads)
      T.join();
    SessionSeconds += seconds(Begin, Clock::now());
    ++Bursts;
    if (Plan.Trace)
      for (size_t C = 0; C < Clients.size(); ++C)
        replay(*Clients[C], First[C]);
  }

  bool enough() const override { return !Live || Bursts >= MinBursts; }

  LegResult finish() override {
    if (!Live)
      return std::move(R);
    uint64_t Hits = counterOf(Socket, "stats", "cache", "hits") - Hits0;
    uint64_t Misses = counterOf(Socket, "stats", "cache", "misses") - Misses0;
    uint64_t Overloaded =
        counterOf(Socket, "metrics", "counters", "service.overloaded") -
        Overloaded0;
    for (auto &C : Clients)
      C->Conn.close();
    Live.reset();
    check();

    std::vector<double> WarmMs, EditMs, Reanalyzed;
    size_t Requests = 0;
    for (auto &C : Clients) {
      Requests += C->Log.Requests.size();
      for (const Done &D : C->Log.Requests) {
        if (D.Edit)
          Reanalyzed.push_back(D.Reanalyzed);
        if (!D.FirstOfBurst)
          (D.Edit ? EditMs : WarmMs).push_back(D.RoundTripMs);
      }
    }
    R.EndToEnd = {
        {"requests_per_s", "1/s", static_cast<double>(Requests) / SessionSeconds,
         std::to_string(NumClients) + " closed-loop clients, " +
             std::to_string(Bursts) + " bursts"},
        {"warm_p50_ms", "ms", median(WarmMs), ""},
        groupTailMetric("warm_tail_ms", "ms", groupsOf(WarmMs, WarmGroup)),
        {"edit_p50_ms", "ms", median(EditMs), ""},
        groupTailMetric("edit_tail_ms", "ms", groupsOf(EditMs, EditGroup)),
    };
    if (!Plan.Trace)
      return std::move(R);

    R.Account.Note = "per replayed warm request: analyze(); the warm chain "
                     "without and with spans; the layers under the traced "
                     "chain";
    // Back-to-back runs of the same warm request differ by -19% to +44% on
    // a shared host, and the median of 40 pairs by up to 5%.
    R.Account.NoiseShare = 0.10;
    auto Layer = [&](const char *Name) { return layerMedian(Roots, Name); };
    double Lookups = static_cast<double>(Hits + Misses);
    R.Layers = {
        {"lang.parse_s", "s", Layer("lang.parse"), ""},
        {"lang.sema_s", "s", Layer("lang.sema"), ""},
        {"ir.lower_s", "s", Layer("ir.lower"), ""},
        {"analysis.callgraph_s", "s", Layer("analysis.callgraph"), ""},
        {"pointsto.solve_s", "s", Layer("pointsto.solve"), ""},
        {"ir.print_s", "s", Layer("ir.print"), "both prints of a request"},
        {"service.fingerprint_s", "s", Layer("service.fingerprint"), ""},
        {"service.analyzer_warm_ms", "ms", median(AnalyzerWarm), ""},
        {"service.analyzer_edit_ms", "ms", median(AnalyzerEdit), ""},
        {"service.transport_ms", "ms", median(Transport),
         "round trip minus in-process analyzer"},
        {"service.cache_hit_ratio", "ratio",
         Lookups > 0 ? static_cast<double>(Hits) / Lookups : 0, ""},
        {"service.sections_reanalyzed_per_edit", "count", median(Reanalyzed),
         ""},
        {"service.overloaded", "count", static_cast<double>(Overloaded), ""},
    };
    return std::move(R);
  }

private:
  static constexpr double BurstSeconds = 0.5;
  static constexpr unsigned MinBursts = 3;
  /// Tail groups: p95 of 200 warm requests, p90 of 100 edits (ten
  /// samples beyond each). A 45 s run has two or more of each at this
  /// commit.
  static constexpr size_t WarmGroup = 200, EditGroup = 100;

  static AnalyzeParams params() {
    AnalyzeParams P;
    P.K = K;
    return P;
  }

  /// Output check: every report equals a cold compile() of its text. It
  /// runs after the session, so it may use every core: nproc threads take
  /// the texts in turn.
  void check() {
    std::vector<std::pair<size_t, size_t>> Work; // (client, text)
    std::vector<std::vector<char>> TextOk(Clients.size());
    for (size_t C = 0; C < Clients.size(); ++C) {
      TextOk[C].assign(Clients[C]->Log.Texts.size(), 1);
      for (size_t T = 0; T < Clients[C]->Log.Texts.size(); ++T)
        if (!Clients[C]->Log.Reports[T].empty())
          Work.push_back({C, T});
    }
    std::atomic<size_t> NextWork{0};
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I < std::max(1u, std::thread::hardware_concurrency());
         ++I)
      Threads.emplace_back([&] {
        for (size_t W; (W = NextWork++) < Work.size();) {
          auto [C, T] = Work[W];
          const ClientLog &Log = Clients[C]->Log;
          CompileOptions Opts;
          Opts.K = K;
          Opts.Jobs = 1; // one core per checker thread
          std::string Reference =
              compile(Log.Texts[T].text(), Opts)->report();
          if (Bad.ServiceReference)
            Reference += " ";
          TextOk[C][T] = Log.Reports[T].size() == 1 &&
                         Log.Reports[T][0] == fnv1a(Reference);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    for (size_t C = 0; C < Clients.size(); ++C) {
      ClientLog &Log = Clients[C]->Log;
      R.Attempted += Log.Requests.size();
      R.Failed += Log.Failed;
      for (std::string &F : Log.Failures)
        R.Failures.push_back(F);
      for (const Done &D : Log.Requests)
        if (!TextOk[C][D.Text])
          R.fail("client " + std::to_string(C) + ": report for " +
                 Units[D.Unit].Name + " differs from a cold compile()");
    }
  }

  /// Traced run: replays the burst's requests from \p First on the
  /// mirror. Warm requests are sampled (they leave the analyzer's state
  /// unchanged) and each sampled one also runs the warm chain without and
  /// with spans; edits all run so the mirror follows the daemon.
  void replay(ClientState &S, size_t First) {
    for (size_t I = First; I < S.Log.Requests.size(); ++I) {
      const Done &D = S.Log.Requests[I];
      uint64_t Id = ++ReplayId;
      if (!D.Edit && WarmSeen++ % 3 != 0)
        continue;
      std::string Text = S.Log.Texts[D.Text].text();
      auto T0 = Clock::now();
      AnalyzeOutcome Out = Mirror->analyze(Units[D.Unit].Name, Text, params());
      double Ms = seconds(T0, Clock::now()) * 1e3;
      R.Spans.add("service.analyzer", Id, -1,
                  seconds(R.Spans.epoch(), T0), R.Spans.now());
      (D.Edit ? AnalyzerEdit : AnalyzerWarm).push_back(Ms);
      if (!D.FirstOfBurst)
        Transport.push_back(D.RoundTripMs - Ms);
      if (D.Edit)
        continue;
      // Untraced and traced chains alternate which runs first, so the
      // second one's warmer caches do not pass for tracing overhead.
      size_t FirstSpan = R.Spans.spans().size();
      double Chain[2] = {0, 0}, Layers = 0;
      for (int Pass = 0; Pass < 2; ++Pass) {
        bool Traced = (Pass == 0) != (Id % 2 == 0);
        ChainOutcome C =
            warmChain(Text, *MirrorCache, Traced ? &R.Spans : nullptr, Id);
        ++R.Attempted;
        Chain[Traced] = C.Seconds;
        if (C.Report != Out.Report)
          R.fail("warm layer chain's report differs from the analyzer's");
      }
      for (SpanLog::Root &Root : R.Spans.roots("service.layers", FirstSpan)) {
        Layers = Root.covered();
        Roots.push_back(std::move(Root));
      }
      R.Account.add(Ms / 1e3, Chain[0], Chain[1], Layers);
    }
  }

  LegPlan Plan;
  Corruption Bad;
  std::string Socket;
  LegResult R;
  std::vector<Unit> Units;
  std::unique_ptr<RunningServer> Live;
  std::unique_ptr<SummaryCache> MirrorCache;
  std::unique_ptr<IncrementalAnalyzer> Mirror;
  std::vector<std::unique_ptr<ClientState>> Clients;
  uint64_t Hits0 = 0, Misses0 = 0, Overloaded0 = 0;
  double SessionSeconds = 0;
  unsigned Bursts = 0;
  uint64_t ReplayId = 0, WarmSeen = 0;
  std::vector<double> AnalyzerWarm, AnalyzerEdit, Transport; ///< ms
  std::vector<SpanLog::Root> Roots; ///< the traced warm chains
};

} // namespace

std::unique_ptr<LegRunner> makeServiceLeg(const LegPlan &Plan,
                                          const Corruption &Bad,
                                          const std::string &Socket) {
  return std::make_unique<ServiceLeg>(Plan, Bad, Socket);
}

} // namespace perfbench
