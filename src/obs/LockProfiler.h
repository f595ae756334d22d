//===--- LockProfiler.h - Per-node lock contention profiler -----*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock-contention profiler, layered on the metrics registry: every
/// lock node the runtime creates registers here and gets a slot holding
/// acquire counts, contention (queued) counts, and wait/hold-time log₂
/// histograms; atomic sections tagged by the interpreter additionally get
/// per-section rollups (entries, locks and nodes per entry, mode mix,
/// nested skips) — live-execution counterparts of the paper's Table 2.
///
/// Cost model: contention events and their wait times are recorded
/// exactly (a queued acquire already pays the node mutex and two clock
/// reads); acquire counts, mode mix, hold times, and section rollups come
/// from sampled sections (1 in kSampleEvery, recorded with weight
/// kSampleEvery so reported counts stay in absolute units; every section
/// when the tracer is armed, weight 1). Disabled, the profiler costs one
/// relaxed load per acquireAll.
///
/// Slot storage is a two-level chunked table: reads are lock-free
/// (registration is mutexed, updates are relaxed atomics), and slot
/// addresses are stable so the runtime can cache them.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_OBS_LOCKPROFILER_H
#define LOCKIN_OBS_LOCKPROFILER_H

#include "obs/Metrics.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lockin {
namespace obs {

/// 1-in-N section sampling for timed instrumentation (see file comment).
inline constexpr unsigned kSampleEvery = 128;

/// What a registered lock node is, for rendering. Stripe nodes are the
/// cache-line-padded shards of an escalated region (Address = stripe
/// index, not a memory address).
struct LockNodeInfo {
  enum class Kind : uint8_t { Root, Region, Leaf, Stripe };
  Kind K = Kind::Root;
  uint32_t Region = 0;
  uint64_t Address = 0;
};

struct NodeSlot {
  Counter Acquires;        ///< sampled, weight-corrected
  Counter Contentions;     ///< exact queued count
  Counter ModeCounts[5];   ///< sampled grant mode mix, weight-corrected
  Histogram WaitNs;        ///< queued waits (spun or slept), exact
  Histogram HoldNs;        ///< sampled acquire-to-release times
  /// Hashed-thread-id bitmap of queued waiters; popcount estimates the
  /// distinct contender count (the adaptive engine sizes stripe tables
  /// from it, and clears it after reading).
  std::atomic<uint64_t> ContenderMask{0};
};

struct SectionSlot {
  Counter Entries;       ///< outermost acquireAll calls
  Counter NestedSkips;   ///< inner acquireAll calls (no locks taken)
  Counter Locks;         ///< descriptors protected, summed over entries
  Counter Nodes;         ///< hierarchy nodes acquired, summed over entries
  Counter ModeCounts[5]; ///< grant mode mix, summed over entries
  Counter WaitNs;        ///< queued ns summed over entries, exact
  Counter HoldNs;        ///< section hold ns, sampled weight-corrected
};

class LockProfiler {
public:
  LockProfiler() = default;
  LockProfiler(const LockProfiler &) = delete;
  LockProfiler &operator=(const LockProfiler &) = delete;
  ~LockProfiler();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// Registers a lock node; returns its id (> 0; 0 is "unregistered").
  uint32_t registerNode(const LockNodeInfo &Info);

  NodeSlot &nodeSlot(uint32_t Id) { return *node(Id); }
  SectionSlot &sectionSlot(uint32_t SectionId);

  uint32_t numNodes() const {
    return NextNodeId.load(std::memory_order_acquire) - 1;
  }
  LockNodeInfo nodeInfo(uint32_t Id) const;

  /// The human `--profile-locks` report: per-node wait/hold histograms
  /// (top nodes by contention, then wait time) and the Table-2-style
  /// per-section rollup. Lines are ";"-prefixed like the other reports.
  std::string renderTable() const;

  /// Zero every slot (benchmark phases); registrations survive.
  void reset();

private:
  template <typename T> struct ChunkedTable {
    static constexpr unsigned ChunkBits = 6;
    static constexpr unsigned ChunkSize = 1u << ChunkBits;
    static constexpr unsigned MaxChunks = 4096; // 256K slots
    std::atomic<T *> Chunks[MaxChunks]{};

    ~ChunkedTable() {
      for (auto &C : Chunks)
        delete[] C.load(std::memory_order_relaxed);
    }
    /// Lock-free once the chunk exists; call ensure() first (mutexed).
    T *get(uint32_t I) const {
      T *Chunk = Chunks[I >> ChunkBits].load(std::memory_order_acquire);
      return Chunk ? &Chunk[I & (ChunkSize - 1)] : nullptr;
    }
    T &ensure(uint32_t I, std::mutex &Mu) {
      std::atomic<T *> &Slot = Chunks[I >> ChunkBits];
      T *Chunk = Slot.load(std::memory_order_acquire);
      if (!Chunk) {
        std::lock_guard<std::mutex> Lock(Mu);
        Chunk = Slot.load(std::memory_order_acquire);
        if (!Chunk) {
          Chunk = new T[ChunkSize]();
          Slot.store(Chunk, std::memory_order_release);
        }
      }
      return Chunk[I & (ChunkSize - 1)];
    }
  };

  NodeSlot *node(uint32_t Id) { return Nodes.get(Id); }

  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu;
  std::atomic<uint32_t> NextNodeId{1};
  ChunkedTable<NodeSlot> Nodes;
  ChunkedTable<LockNodeInfo> Infos;
  ChunkedTable<SectionSlot> Sections;
  std::atomic<uint32_t> MaxSectionId{0};
};

/// The process-wide default profiler (what --profile-locks renders).
LockProfiler &lockProfiler();

} // namespace obs
} // namespace lockin

#endif // LOCKIN_OBS_LOCKPROFILER_H
