//===--- LockNode.h - One node of the lock hierarchy ------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_RUNTIME_LOCKNODE_H
#define LOCKIN_RUNTIME_LOCKNODE_H

#include "runtime/Mode.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace lockin {
namespace rt {

namespace detail {
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause");
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
} // namespace detail

/// A blocking multi-mode lock: one node of the tree hierarchy
/// (root ⊤ → region → address). A request compatible with every
/// currently granted mode takes its grant at once, even past queued
/// waiters (bounded bypass); an incompatible one queues. Queued waiters
/// are served FIFO among themselves and only the queue head grants
/// itself. Bypass is bounded: once the head has waited StarveNs, it sets
/// the starving bit, and from then until its grant every arrival queues
/// behind it, so each head is granted within StarveNs plus the longest
/// hold of the grants already issued. Deadlock freedom does not rest on
/// the grant order of one node but on the hierarchy's top-down
/// acquisition order (LockRuntime); bypass only keeps a descheduled head
/// from convoying every later request behind it.
///
/// The whole grant state lives in one atomic word: a 12-bit grant count
/// per mode (IS, IX, S, SIX, X), a head-parked bit and the starving bit.
/// Uncontended acquire is a single fetch_add (compatibility is one AND
/// against a precomputed conflict mask) and uncontended release a single
/// fetch_sub; neither touches the mutex. A request that observes a
/// conflict — or the starving bit — takes a FIFO ticket and waits its
/// turn. A queued waiter first spins, without the mutex, on the serving
/// ticket and the grant word for up to one park+wake round trip
/// (QueueSpinNs), so a short critical section hands over without a futex
/// round trip; only then does it sleep, on a condition variable of its
/// own. The head sleeps with a timeout at its starvation deadline, so the
/// starving bit is set on time even when no release wakes it. A release
/// wakes someone only when the head-parked bit says the queue head
/// sleeps, and then wakes exactly that head; granting the head wakes only
/// the next head, so no release ever wakes the whole queue.
class LockNode {
public:
  /// Blocks until the node is granted in \p M. Returns true iff the
  /// thread had to queue (the contended slow path, whether its turn came
  /// while it spun or after it slept); when \p WaitNs is non-null it
  /// receives the queued wait in nanoseconds (and is left untouched on the
  /// uncontended path, which never reads the clock).
  bool acquire(Mode M, uint64_t *WaitNs = nullptr) {
    if (fastAcquire(M))
      return false;
    slowAcquire(M, WaitNs);
    return true;
  }

  /// Releases one grant of \p M.
  void release(Mode M) {
    uint64_t Prev = Word.fetch_sub(grantOne(M), std::memory_order_acq_rel);
    assert((Prev & grantMask(M)) != 0 && "release without matching grant");
    if (Prev & HeadParkedBit)
      wakeHead();
  }

  /// Non-blocking variant; fails when the node is incompatible or the
  /// queue head is starving (the same admission rule as acquire).
  bool tryAcquire(Mode M) {
    uint64_t W = Word.load(std::memory_order_relaxed);
    while (!(W & (StarvingBit | conflictMask(M)))) {
      if (Word.compare_exchange_weak(W, W + grantOne(M),
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed))
        return true;
    }
    return false;
  }

  /// Number of current grants of \p M (diagnostics/tests only).
  unsigned grantedCount(Mode M) const {
    uint64_t W = Word.load(std::memory_order_acquire);
    return static_cast<unsigned>((W >> countShift(M)) & CountMask);
  }

  /// Number of queued requests (diagnostics/tests only).
  unsigned queuedCount() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return static_cast<unsigned>(NextTicket -
                                 Serving.load(std::memory_order_relaxed));
  }

private:
  // Word layout: five 12-bit grant counts (mode i at bits [12i, 12i+12)),
  // then the head-parked bit (the queue head sleeps and must be woken
  // when a grant is released) and the starving bit (the head has waited
  // StarveNs: no grant but its own until it is served). 12 bits bound
  // concurrent holders per mode at 4095, far above any realistic thread
  // count.
  static constexpr unsigned BitsPerMode = 12;
  static constexpr uint64_t CountMask = (1ull << BitsPerMode) - 1;
  static constexpr uint64_t HeadParkedBit = 1ull << (BitsPerMode * NumModes);
  static constexpr uint64_t StarvingBit = HeadParkedBit << 1;
  static constexpr unsigned SpinLimit = 48;
  /// How long a queued waiter spins before it sleeps. Spinning past one
  /// park+wake round trip costs more than sleeping would; a condvar
  /// ping-pong between two threads on a 4-core x86-64 host took 12 µs at
  /// p50 and 21–23 µs at p99 per round trip, so the cap is 20 µs.
  static constexpr uint64_t QueueSpinNs = 20000;
  /// How long the queue head lets compatible arrivals bypass it before
  /// it closes the node to everyone but itself. Long against a handoff
  /// (QueueSpinNs) so bypass is the common case, short against a
  /// scheduler quantum so no request waits long behind a head the OS
  /// has descheduled.
  static constexpr uint64_t StarveNs = 1'000'000;

  static constexpr unsigned countShift(Mode M) {
    return static_cast<unsigned>(M) * BitsPerMode;
  }
  static constexpr uint64_t grantOne(Mode M) { return 1ull << countShift(M); }
  static constexpr uint64_t grantMask(Mode M) {
    return CountMask << countShift(M);
  }

  /// All-ones across the count fields of every mode incompatible with
  /// \p M: `word & conflictMask(M) == 0` ⇔ M is compatible with every
  /// currently granted mode.
  static constexpr uint64_t conflictMaskFor(Mode M) {
    uint64_t Mask = 0;
    uint8_t Bits = modeConflictSet(M);
    for (unsigned I = 0; I < NumModes; ++I)
      if (Bits & (1u << I))
        Mask |= CountMask << (I * BitsPerMode);
    return Mask;
  }
  static uint64_t conflictMask(Mode M) {
    static constexpr uint64_t Table[NumModes] = {
        conflictMaskFor(Mode::IS), conflictMaskFor(Mode::IX),
        conflictMaskFor(Mode::S), conflictMaskFor(Mode::SIX),
        conflictMaskFor(Mode::X)};
    return Table[static_cast<unsigned>(M)];
  }

  bool fastAcquire(Mode M) {
    const uint64_t Conflicts = conflictMask(M);
    const uint64_t One = grantOne(M);
    unsigned Budget = SpinLimit;
    for (;;) {
      // Optimistic: add the grant first and validate against the
      // *pre-add* value, so the uncontended acquire is one fetch_add
      // rather than load + CAS. The RMW order totally orders racing
      // optimists — the first one sees a clean word and keeps its grant,
      // later incompatible ones see the winner and undo, so there is no
      // mutual kill. A transient optimistic grant can only make a
      // concurrent compatibility check conservatively fail, never
      // wrongly succeed.
      uint64_t W = Word.fetch_add(One, std::memory_order_acquire);
      assert((W & grantMask(M)) != grantMask(M) && "grant count overflow");
      if (!(W & (Conflicts | StarvingBit)))
        return true;
      uint64_t Prev = Word.fetch_sub(One, std::memory_order_acq_rel);
      // Our phantom grant may have made a sleeping head's own grant
      // attempt fail; wake it so it retries.
      if (Prev & HeadParkedBit)
        wakeHead();
      if (W & StarvingBit)
        return false; // the head has waited its bound: queue behind it
      // Conflict: spin on plain loads until it clears, then retry the
      // optimistic add; queue once the budget runs out.
      for (;;) {
        if (Budget-- == 0)
          return false;
        W = Word.load(std::memory_order_relaxed);
        if (W & StarvingBit)
          return false;
        if (!(W & Conflicts))
          break;
        detail::cpuRelax();
      }
    }
  }

  static uint64_t clockNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// One queued request. It lives on the waiting thread's stack and is
  /// linked into the queue under Mu; other threads touch it only under Mu.
  struct Waiter {
    uint64_t Ticket = 0;
    Waiter *Next = nullptr;
    bool Parked = false;
    std::condition_variable CV;
  };

  /// Claims one grant (\p One, conflicting with \p Conflicts) with the
  /// fast path's compatibility check and the grant as one CAS, so it is
  /// atomic even against fast-path acquirers.
  bool tryGrant(uint64_t Conflicts, uint64_t One) {
    uint64_t W = Word.load(std::memory_order_relaxed);
    while (!(W & Conflicts))
      if (Word.compare_exchange_weak(W, W + One, std::memory_order_acquire,
                                     std::memory_order_relaxed))
        return true;
    return false;
  }

  /// Wakes the queue head if it sleeps. Called after a grant was dropped
  /// from the word (release, phantom undo): of the queued waiters only
  /// the head may claim it.
  void wakeHead() {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Head && Head->Parked)
      Head->CV.notify_one();
  }

  void slowAcquire(Mode M, uint64_t *WaitNs) {
    const uint64_t T0 = clockNs();
    const uint64_t Conflicts = conflictMask(M);
    const uint64_t One = grantOne(M);
    Waiter Me;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Me.Ticket = NextTicket++;
      (Head ? Tail->Next : Head) = &Me;
      Tail = &Me;
    }
    // When this waiter first failed a grant as the queue head; its
    // starvation deadline is HeadSince + StarveNs.
    uint64_t HeadSince = 0;
    // Spin phase: a short holder hands over here, without a futex round
    // trip. Only the head (ticket == Serving) may claim a grant.
    bool Granted = false;
    for (unsigned I = 1;; ++I) {
      if (Serving.load(std::memory_order_acquire) == Me.Ticket) {
        if (tryGrant(Conflicts, One)) {
          Granted = true;
          break;
        }
        if (!HeadSince)
          HeadSince = clockNs();
      }
      if (I % 64 == 0 && clockNs() - T0 >= QueueSpinNs)
        break;
      detail::cpuRelax();
    }
    std::unique_lock<std::mutex> Lock(Mu);
    // Park phase. The head announces its sleep in the word before its
    // last grant attempt: a release ordered after the announcement sees
    // the bit and wakes it, one ordered before is seen by the attempt.
    // Until its deadline the head sleeps with a timeout, so it wakes to
    // close the node (the starving bit, set in the same RMW) even when
    // compatible arrivals keep the grant busy and no release wakes it.
    // A non-head sleeper is woken by its predecessor's dequeue below.
    while (!Granted) {
      bool Timed = false;
      if (Serving.load(std::memory_order_relaxed) == Me.Ticket) {
        uint64_t Now = clockNs();
        if (!HeadSince)
          HeadSince = Now;
        Timed = Now - HeadSince < StarveNs;
        Word.fetch_or(Timed ? HeadParkedBit : HeadParkedBit | StarvingBit,
                      std::memory_order_acq_rel);
        if (tryGrant(Conflicts, One))
          break;
      }
      Me.Parked = true;
      if (Timed)
        Me.CV.wait_until(Lock, std::chrono::steady_clock::time_point(
                                   std::chrono::nanoseconds(HeadSince +
                                                            StarveNs)));
      else
        Me.CV.wait(Lock);
      Me.Parked = false;
    }
    // Dequeue: this waiter is the head. Its grant reopens the node to
    // bypass, and the next head starts a deadline of its own.
    assert(Head == &Me && "granted out of FIFO order");
    Head = Me.Next;
    if (!Head)
      Tail = nullptr;
    Word.fetch_and(~(HeadParkedBit | StarvingBit), std::memory_order_relaxed);
    Serving.store(Me.Ticket + 1, std::memory_order_release);
    // The next waiter may also be compatible (e.g. another reader); if it
    // sleeps, it must wake to claim its turn.
    if (Head && Head->Parked)
      Head->CV.notify_one();
    Lock.unlock();
    if (WaitNs)
      *WaitNs = clockNs() - T0;
  }

public:
  /// Slot id in the lock profiler's node table; 0 = unregistered. Set
  /// once at node creation by the owning LockRuntime, read-only after.
  uint32_t ObsId = 0;

private:
  std::atomic<uint64_t> Word{0};
  /// Ticket of the queue head; written under Mu, spun on without it.
  std::atomic<uint64_t> Serving{0};
  mutable std::mutex Mu; // guards the queue links, NextTicket, Parked flags
  Waiter *Head = nullptr;
  Waiter *Tail = nullptr;
  uint64_t NextTicket = 0;
};

} // namespace rt
} // namespace lockin

#endif // LOCKIN_RUNTIME_LOCKNODE_H
