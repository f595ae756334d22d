//===--- RuntimeLeg.cpp - Real-thread atomic sections -----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §6.1 micro harness on real threads: nproc threads, each replaying a
/// pregenerated seeded stream of operations over hashtable-2 and TH (equal
/// shares), low mix (4x gets), 200 nops per section, 2048 keys, with the
/// Fine+Coarse (k=9) lock sets workloads/Adapters.h and MicroBench.cpp
/// hard-code, through rt::ThreadLockContext::toAcquire/acquireAll/
/// releaseAll. No compiler code runs here.
///
/// The leg runs rounds. Each round starts from freshly populated
/// structures and a fresh LockRuntime (outside the timed window), replays
/// every thread's stream once, and is checked: for every key, the initial
/// presence plus successful puts minus successful removes must equal the
/// final presence, and RbTreeCore::checkInvariants() must hold.
///
/// One section in eight is timed (the clock would otherwise dominate a
/// sub-microsecond section). The traced run alternates untraced rounds
/// with rounds that arm a LockProfiler and record acquire/body/release
/// spans for the timed sections.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/LockProfiler.h"
#include "obs/Metrics.h"
#include "runtime/LockRuntime.h"
#include "support/Rng.h"
#include "workloads/Adapters.h"
#include "workloads/DataStructures.h"

#include <atomic>
#include <memory>
#include <thread>

using namespace lockin;
using namespace lockin::workloads;

namespace perfbench {
namespace {

constexpr int64_t KeySpace = 2048;
constexpr unsigned SectionNops = 200;
constexpr unsigned OpsPerThread = 8192;
constexpr unsigned SampleMask = 7; ///< time one section in eight
constexpr unsigned MinRounds = 3;

/// Region numbering of MicroBench.cpp (one region per container and per
/// element class, as Steensgaard finds them on the toy versions).
constexpr uint32_t RegionTable = 1;    // hashtable (TH's odd keys)
constexpr uint32_t RegionBuckets2 = 2; // hashtable-2 bucket cells
constexpr uint32_t RegionNodes2 = 3;   // hashtable-2 chain nodes
constexpr uint32_t RegionTree = 4;     // red-black tree (TH's even keys)
constexpr unsigned NumRegions = 5;

enum class Op : uint8_t { Put, Get, Remove };
/// Which structure an operation lands on; TH splits by key parity.
enum Target : uint8_t { Ht2 = 0, Table = 1, Tree = 2, NumTargets = 3 };

struct OpRec {
  Op O;
  Target T;
  int32_t Key;
};

std::vector<std::vector<OpRec>> makeStreams(uint64_t Seed, unsigned Threads) {
  std::vector<std::vector<OpRec>> Streams(Threads);
  for (unsigned T = 0; T < Threads; ++T) {
    Rng R(Seed * 1315423911u + T);
    Streams[T].reserve(OpsPerThread);
    for (unsigned I = 0; I < OpsPerThread; ++I) {
      // Low mix of §6.1: gets four times as common as puts or removes.
      uint64_t Roll = R.below(6);
      Op O = Roll < 4 ? Op::Get : (Roll == 4 ? Op::Put : Op::Remove);
      auto Key = static_cast<int32_t>(R.below(KeySpace));
      Target Tg = R.below(2) == 0 ? Ht2 : (Key % 2 == 0 ? Tree : Table);
      Streams[T].push_back({O, Tg, Key});
    }
  }
  return Streams;
}

/// The structures of one round, populated with every key ≡ 0,1 (mod 4)
/// so about half the gets hit.
struct World {
  Hashtable2Core Ht2Core;
  HashtableCore TableCore;
  RbTreeCore TreeCore;
  /// Initial presence per (target, key).
  std::vector<int64_t> Initial = std::vector<int64_t>(NumTargets * KeySpace);

  World() {
    DirectMem M;
    for (int64_t K = 0; K < KeySpace; ++K) {
      if (K % 4 > 1)
        continue;
      Ht2Core.put(M, K, K);
      Initial[Ht2 * KeySpace + K] = 1;
      if (K % 2 == 0)
        TreeCore.insert(M, K, K), Initial[Tree * KeySpace + K] = 1;
      else
        TableCore.put(M, K, K), Initial[Table * KeySpace + K] = 1;
    }
  }
};

/// What one thread measured in one round.
struct ThreadOut {
  std::vector<int64_t> Delta = std::vector<int64_t>(NumTargets * KeySpace);
  std::vector<double> GetUs, PutUs;
  std::vector<double> AcquireNs, ReleaseNs, BodyNs, SectionNs;
  double AcquireSum = 0, SectionSum = 0;
  double EndSeconds = 0;
  SpanLog Spans;
};

/// Declares the Fine+Coarse (k=9) lock set of one operation.
void declareLocks(rt::ThreadLockContext &Ctx, World &W, const OpRec &Rec) {
  bool Write = Rec.O != Op::Get;
  switch (Rec.T) {
  case Ht2:
    if (Rec.O == Op::Put) {
      // The k=9 inference finds one fine lock: the bucket head cell.
      Ctx.toAcquire(rt::LockDescriptor::fine(
          RegionBuckets2,
          reinterpret_cast<uint64_t>(W.Ht2Core.bucketCell(Rec.Key)), true));
      return;
    }
    // get/remove traverse the chain: coarse on buckets and nodes.
    Ctx.toAcquire(rt::LockDescriptor::coarse(RegionBuckets2, Write));
    Ctx.toAcquire(rt::LockDescriptor::coarse(RegionNodes2, Write));
    return;
  case Table:
    // A put may rehash the whole table: always coarse.
    Ctx.toAcquire(rt::LockDescriptor::coarse(RegionTable, Write));
    return;
  case Tree:
    Ctx.toAcquire(rt::LockDescriptor::coarse(RegionTree, Write));
    return;
  case NumTargets:
    return;
  }
}

/// The section body; returns the presence change it made.
int64_t body(World &W, const OpRec &Rec) {
  DirectMem M;
  int64_t Out = 0;
  sectionWork(SectionNops);
  switch (Rec.T) {
  case Ht2:
    if (Rec.O == Op::Put)
      return W.Ht2Core.put(M, Rec.Key, Rec.Key), 1;
    if (Rec.O == Op::Get)
      return W.Ht2Core.get(M, Rec.Key, Out), 0;
    return W.Ht2Core.remove(M, Rec.Key) ? -1 : 0;
  case Table:
    if (Rec.O == Op::Put)
      return W.TableCore.put(M, Rec.Key, Rec.Key) ? 1 : 0;
    if (Rec.O == Op::Get)
      return W.TableCore.get(M, Rec.Key, Out), 0;
    return W.TableCore.remove(M, Rec.Key) ? -1 : 0;
  case Tree:
    if (Rec.O == Op::Put)
      return W.TreeCore.insert(M, Rec.Key, Rec.Key) ? 1 : 0;
    if (Rec.O == Op::Get)
      return W.TreeCore.get(M, Rec.Key, Out), 0;
    return W.TreeCore.remove(M, Rec.Key) ? -1 : 0;
  case NumTargets:
    break;
  }
  return 0;
}

double ns(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

void runThread(rt::LockRuntime &RT, World &W, const std::vector<OpRec> &Ops,
               bool Traced, uint64_t IdBase, std::atomic<unsigned> &Ready,
               const std::atomic<bool> &Go, Clock::time_point Epoch,
               ThreadOut &Out) {
  rt::ThreadLockContext Ctx(RT);
  Ready.fetch_add(1);
  while (!Go.load(std::memory_order_acquire))
    ;
  for (size_t I = 0; I < Ops.size(); ++I) {
    const OpRec &Rec = Ops[I];
    // Tagged by operation: the profiler's per-section rollups split
    // gets, puts and removes.
    Ctx.setSectionTag(static_cast<uint32_t>(Rec.O) + 1);
    if ((I & SampleMask) != 0) {
      declareLocks(Ctx, W, Rec);
      Ctx.acquireAll();
      Out.Delta[Rec.T * KeySpace + Rec.Key] += body(W, Rec);
      Ctx.releaseAll();
      continue;
    }
    auto T0 = Clock::now();
    declareLocks(Ctx, W, Rec);
    Ctx.acquireAll();
    Clock::time_point T1, T2;
    if (Traced)
      T1 = Clock::now();
    Out.Delta[Rec.T * KeySpace + Rec.Key] += body(W, Rec);
    if (Traced)
      T2 = Clock::now();
    Ctx.releaseAll();
    auto T3 = Clock::now();
    double SectionNs = ns(T0, T3);
    if (Rec.O == Op::Get)
      Out.GetUs.push_back(SectionNs / 1e3);
    else if (Rec.O == Op::Put)
      Out.PutUs.push_back(SectionNs / 1e3);
    Out.SectionNs.push_back(SectionNs);
    if (!Traced)
      continue;
    Out.AcquireNs.push_back(ns(T0, T1));
    Out.BodyNs.push_back(ns(T1, T2));
    Out.ReleaseNs.push_back(ns(T2, T3));
    Out.AcquireSum += ns(T0, T1);
    Out.SectionSum += SectionNs;
    auto At = [&](Clock::time_point T) { return seconds(Epoch, T); };
    uint64_t Id = IdBase + I;
    int64_t Root = Out.Spans.add("section", Id, -1, At(T0), At(T3));
    Out.Spans.add("runtime.acquire", Id, Root, At(T0), At(T1));
    Out.Spans.add("workloads.body", Id, Root, At(T1), At(T2));
    Out.Spans.add("runtime.release", Id, Root, At(T2), At(T3));
  }
  Out.EndSeconds = seconds(Epoch, Clock::now());
  Ctx.flushStats();
}

/// Final presence of every (target, key). Drains hashtable-2, whose puts
/// stack duplicates, so its presence is a count.
std::vector<int64_t> finalPresence(World &W) {
  std::vector<int64_t> P(NumTargets * KeySpace);
  DirectMem M;
  int64_t Out = 0;
  for (int64_t K = 0; K < KeySpace; ++K) {
    while (W.Ht2Core.remove(M, K))
      ++P[Ht2 * KeySpace + K];
    P[Table * KeySpace + K] = W.TableCore.get(M, K, Out) ? 1 : 0;
    P[Tree * KeySpace + K] = W.TreeCore.get(M, K, Out) ? 1 : 0;
  }
  return P;
}

struct ProfileTotals {
  uint64_t Contentions = 0;
  uint64_t WaitNs = 0;
};

ProfileTotals profileTotals(obs::LockProfiler &Prof) {
  ProfileTotals T;
  for (uint32_t Id = 1; Id <= Prof.numNodes(); ++Id)
    T.Contentions += Prof.nodeSlot(Id).Contentions.value();
  for (uint32_t Tag = 1; Tag <= 3; ++Tag) {
    obs::SectionSlot &S = Prof.sectionSlot(Tag);
    T.WaitNs += S.WaitNs.value();
  }
  return T;
}

class RuntimeLeg : public LegRunner {
public:
  RuntimeLeg(const LegPlan &Plan, const Corruption &Bad)
      : Plan(Plan), Bad(Bad),
        Threads(std::max(1u, std::thread::hardware_concurrency())) {
    // Set-up: the streams and one populated world.
    std::vector<double> Setups;
    for (unsigned I = 0; I < SetupRepeats; ++I) {
      auto T0 = Clock::now();
      Streams = makeStreams(Plan.Seed, Threads);
      auto W = std::make_unique<World>();
      Setups.push_back(seconds(T0, Clock::now()));
    }
    R.SetupSeconds = median(Setups);
  }

  void step() override {
    uint64_t Round = Rounds + TracedRounds;
    bool Traced = Plan.Trace && Round % 2 == 1;
    auto W = std::make_unique<World>();
    obs::MetricsRegistry Registry;
    obs::LockProfiler Profiler;
    Profiler.setEnabled(Traced);
    rt::LockRuntime RT(NumRegions, &Registry, &Profiler);
    std::vector<std::unique_ptr<ThreadOut>> Outs;
    for (unsigned T = 0; T < Threads; ++T) {
      Outs.push_back(std::make_unique<ThreadOut>());
      if (Bad.DropSpan)
        Outs.back()->Spans.drop(Bad.DropSpan);
    }
    std::atomic<unsigned> Ready{0};
    std::atomic<bool> Go{false};
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back(runThread, std::ref(RT), std::ref(*W),
                        std::cref(Streams[T]), Traced,
                        (Round * Threads + T) << 32, std::ref(Ready),
                        std::cref(Go), R.Spans.epoch(), std::ref(*Outs[T]));
    while (Ready.load() < Threads)
      std::this_thread::yield();
    double Begin = seconds(R.Spans.epoch(), Clock::now());
    Go.store(true, std::memory_order_release);
    for (std::thread &T : Pool)
      T.join();
    double End = 0;
    for (auto &O : Outs)
      End = std::max(End, O->EndSeconds);
    uint64_t Sections = uint64_t(Threads) * OpsPerThread;
    check(*W, Outs, Round, Sections);

    std::vector<double> Get, Put;
    double SectionSum = 0;
    size_t Timed = 0, First = R.Spans.spans().size();
    for (auto &O : Outs) {
      for (double X : O->SectionNs)
        SectionSum += X, ++Timed;
      if (!Traced) {
        Get.insert(Get.end(), O->GetUs.begin(), O->GetUs.end());
        Put.insert(Put.end(), O->PutUs.begin(), O->PutUs.end());
        continue;
      }
      AcquireNs.insert(AcquireNs.end(), O->AcquireNs.begin(),
                       O->AcquireNs.end());
      ReleaseNs.insert(ReleaseNs.end(), O->ReleaseNs.begin(),
                       O->ReleaseNs.end());
      BodyNs.insert(BodyNs.end(), O->BodyNs.begin(), O->BodyNs.end());
      TracedAcquireSum += O->AcquireSum;
      TracedSectionSum += O->SectionSum;
      R.Spans.append(O->Spans);
    }
    // Means, not medians, for the accounting check (see finish()).
    double MeanS = Timed ? SectionSum / static_cast<double>(Timed) / 1e9 : 0;
    if (!Traced) {
      UntracedMeanS = MeanS;
      ++Rounds;
      Throughput.push_back(static_cast<double>(Sections) / (End - Begin));
      GetUs.push_back(std::move(Get));
      PutUs.push_back(std::move(Put));
      return;
    }
    ++TracedRounds;
    // Paired with the untraced round before it; the section is its own
    // chain, so the untraced chain is the end-to-end time.
    double Covered = 0;
    std::vector<SpanLog::Root> Roots = R.Spans.roots("section", First);
    for (const SpanLog::Root &Root : Roots)
      Covered += Root.covered();
    R.Account.add(UntracedMeanS, UntracedMeanS, MeanS,
                  Roots.empty() ? 0 : Covered / Roots.size());
    rt::LockRuntimeStats S = RT.stats();
    AcquireAllCalls += S.AcquireAllCalls;
    NodeAcquisitions += S.NodeAcquisitions;
    LeafHits += S.LeafCacheHits;
    LeafMisses += S.LeafCacheMisses;
    TracedSections += Sections;
    ProfileTotals P = profileTotals(Profiler);
    Contentions += P.Contentions;
    WaitNs += P.WaitNs;
  }

  bool enough() const override {
    return Rounds >= MinRounds && (!Plan.Trace || TracedRounds >= MinRounds);
  }

  LegResult finish() override {
    // Means, not medians: about half the sections park behind a writer,
    // so the median sits on the cliff between the ~1 us uncontended mode
    // and the ~40 us parked mode and flips between them from round to
    // round; the mean moves smoothly with the parked share. Each round's
    // mean, median over the rounds, as for the tails: a round that the
    // host stalled cannot move it.
    auto Mean = [](const std::vector<std::vector<double>> &Rounds) {
      std::vector<double> Means;
      for (const std::vector<double> &V : Rounds) {
        double Sum = 0;
        for (double X : V)
          Sum += X;
        if (!V.empty())
          Means.push_back(Sum / static_cast<double>(V.size()));
      }
      return median(Means);
    };
    R.EndToEnd = {
        {"sections_per_s", "1/s", median(Throughput),
         "median over " + std::to_string(Rounds) + " rounds of " +
             std::to_string(Threads) + " threads x " +
             std::to_string(OpsPerThread) + " sections"},
        {"get_mean_us", "us", Mean(GetUs),
         "median over rounds of each round's mean, timed gets"},
        groupTailMetric("get_tail_us", "us", GetUs),
        {"put_mean_us", "us", Mean(PutUs),
         "median over rounds of each round's mean, timed puts"},
        groupTailMetric("put_tail_us", "us", PutUs),
    };
    if (!Plan.Trace)
      return std::move(R);

    R.Account.Note = "per pair of rounds: mean timed section untraced, and "
                     "traced; the mean layers under a traced section";
    auto Ratio = [](double Num, double Den) {
      return Den > 0 ? Num / Den : 0;
    };
    auto D = [](uint64_t N) { return static_cast<double>(N); };
    R.Layers = {
        {"runtime.acquire_p50_ns", "ns", median(AcquireNs), ""},
        tailMetric("runtime.acquire_tail_ns", "ns", AcquireNs),
        {"runtime.release_p50_ns", "ns", median(ReleaseNs), ""},
        {"runtime.acquire_share", "ratio",
         Ratio(TracedAcquireSum, TracedSectionSum),
         "acquire time / section time"},
        {"runtime.contended_ratio", "ratio",
         Ratio(D(Contentions), D(NodeAcquisitions)),
         "parked node grants / node grants"},
        {"runtime.wait_ns_per_section", "ns",
         Ratio(D(WaitNs), D(TracedSections)), ""},
        {"runtime.node_acquisitions_per_section", "count",
         Ratio(D(NodeAcquisitions), D(AcquireAllCalls)), ""},
        {"runtime.leaf_cache_hit_ratio", "ratio",
         Ratio(D(LeafHits), D(LeafHits + LeafMisses)), ""},
        {"workloads.body_p50_ns", "ns", median(BodyNs), ""},
    };
    return std::move(R);
  }

private:
  /// The round's output check (see file comment).
  void check(World &W, const std::vector<std::unique_ptr<ThreadOut>> &Outs,
             uint64_t Round, uint64_t Sections) {
    R.Attempted += Sections;
    std::vector<int64_t> Expected = W.Initial;
    for (auto &O : Outs)
      for (size_t I = 0; I < Expected.size(); ++I)
        Expected[I] += O->Delta[I];
    if (Bad.RuntimePresence)
      Expected[Ht2 * KeySpace] += 1;
    if (!W.TreeCore.checkInvariants())
      R.fail("round " + std::to_string(Round) + ": red-black invariants");
    std::vector<int64_t> Final = finalPresence(W);
    for (size_t I = 0; I < Final.size(); ++I)
      if (Final[I] != Expected[I])
        R.fail("round " + std::to_string(Round) + ": key " +
               std::to_string(I % KeySpace) + " of structure " +
               std::to_string(I / KeySpace) + " present " +
               std::to_string(Final[I]) + " times, expected " +
               std::to_string(Expected[I]));
  }

  LegPlan Plan;
  Corruption Bad;
  unsigned Threads;
  LegResult R;
  std::vector<std::vector<OpRec>> Streams;
  unsigned Rounds = 0, TracedRounds = 0;
  std::vector<double> Throughput;
  std::vector<std::vector<double>> GetUs, PutUs; ///< per untraced round
  double UntracedMeanS = 0; ///< mean timed section of the last untraced round
  std::vector<double> AcquireNs, ReleaseNs, BodyNs;
  double TracedAcquireSum = 0, TracedSectionSum = 0;
  uint64_t AcquireAllCalls = 0, NodeAcquisitions = 0, LeafHits = 0,
           LeafMisses = 0, TracedSections = 0, Contentions = 0, WaitNs = 0;
};

} // namespace

std::unique_ptr<LegRunner> makeRuntimeLeg(const LegPlan &Plan,
                                          const Corruption &Bad) {
  return std::make_unique<RuntimeLeg>(Plan, Bad);
}

} // namespace perfbench
