//===--- DataStructures.h - Shared-memory benchmark structures ---*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data structures of the paper's micro-benchmarks (§6.1): a sorted
/// linked list, a chained hashtable with resizing (`hashtable`), a
/// fixed-size prepend-only-bucket hashtable (`hashtable-2`), and a
/// red-black tree. Each is written once, parameterized over a memory
/// policy so the same algorithm runs both lock-based (DirectMem: plain
/// loads/stores protected by acquireAll) and transactionally (TxMem:
/// every shared access through a TL2 transaction).
///
/// Each structure owns every node and bucket array it allocates and frees
/// them all in its destructor, never earlier: an unlinked node or a
/// replaced bucket array may still be read by a TL2 reader or a rehash in
/// flight, and neither the paper's system nor TL2 reclaims memory while a
/// structure is shared. Allocation records ownership with one CAS on an
/// intrusive list (BlockOwner), so sections never take a mutex for it.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_WORKLOADS_DATASTRUCTURES_H
#define LOCKIN_WORKLOADS_DATASTRUCTURES_H

#include "stm/Tl2.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

namespace lockin {
namespace workloads {

/// Plain shared-memory accesses; exclusion comes from the lock runtime.
struct DirectMem {
  template <typename T> T read(T *P) { return *P; }
  template <typename T> void write(T *P, T V) { *P = V; }
};

/// Transactional accesses through one TL2 transaction.
struct TxMem {
  stm::Transaction &Tx;
  template <typename T> T read(T *P) { return Tx.read(P); }
  template <typename T> void write(T *P, T V) { Tx.write(P, V); }
};

/// Owns the blocks one structure allocates and frees them all when it
/// dies. Safe to allocate from concurrent sections: each block is pushed
/// onto a lock-free intrusive list.
class BlockOwner {
public:
  BlockOwner() = default;
  BlockOwner(const BlockOwner &) = delete;
  BlockOwner &operator=(const BlockOwner &) = delete;
  ~BlockOwner() {
    for (Block *B = Head.load(std::memory_order_acquire); B;) {
      Block *Next = B->Next;
      ::operator delete(B);
      B = Next;
    }
  }

  /// A value-initialized T (members without initializers are zeroed).
  template <typename T> T *make() { return makeArray<T>(1); }

  /// \p N value-initialized T's (null pointers for a bucket array).
  template <typename T> T *makeArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "blocks are freed without running destructors");
    static_assert(alignof(T) <= alignof(Block), "block payload misaligned");
    T *P = static_cast<T *>(alloc(sizeof(T) * N));
    std::uninitialized_value_construct_n(P, N);
    return P;
  }

private:
  struct alignas(std::max_align_t) Block {
    Block *Next;
  };

  void *alloc(size_t Bytes) {
    auto *B = static_cast<Block *>(::operator new(sizeof(Block) + Bytes));
    B->Next = Head.load(std::memory_order_relaxed);
    while (!Head.compare_exchange_weak(B->Next, B, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
    return B + 1;
  }

  std::atomic<Block *> Head{nullptr};
};

//===----------------------------------------------------------------------===//
// Sorted singly-linked list (the `list` micro-benchmark)
//===----------------------------------------------------------------------===//

class ListCore {
public:
  struct Node {
    int64_t Key;
    Node *Next = nullptr;
  };

  /// Inserts \p Key in sorted position; false if already present.
  template <typename Mem> bool insert(Mem &&M, int64_t Key) {
    Node *Prev = nullptr;
    Node *Cur = M.read(&Head);
    while (Cur && M.read(&Cur->Key) < Key) {
      Prev = Cur;
      Cur = M.read(&Cur->Next);
    }
    if (Cur && M.read(&Cur->Key) == Key)
      return false;
    Node *Fresh = Blocks.make<Node>();
    Fresh->Key = Key;
    M.write(&Fresh->Next, Cur);
    if (Prev)
      M.write(&Prev->Next, Fresh);
    else
      M.write(&Head, Fresh);
    return true;
  }

  template <typename Mem> bool lookup(Mem &&M, int64_t Key) {
    Node *Cur = M.read(&Head);
    while (Cur && M.read(&Cur->Key) < Key)
      Cur = M.read(&Cur->Next);
    return Cur && M.read(&Cur->Key) == Key;
  }

  template <typename Mem> bool remove(Mem &&M, int64_t Key) {
    Node *Prev = nullptr;
    Node *Cur = M.read(&Head);
    while (Cur && M.read(&Cur->Key) < Key) {
      Prev = Cur;
      Cur = M.read(&Cur->Next);
    }
    if (!Cur || M.read(&Cur->Key) != Key)
      return false;
    Node *Next = M.read(&Cur->Next);
    if (Prev)
      M.write(&Prev->Next, Next);
    else
      M.write(&Head, Next);
    return true; // Cur stays allocated until the list dies (file header)
  }

  template <typename Mem> int64_t size(Mem &&M) {
    int64_t N = 0;
    for (Node *Cur = M.read(&Head); Cur; Cur = M.read(&Cur->Next))
      ++N;
    return N;
  }

private:
  BlockOwner Blocks;
  Node *Head = nullptr;
};

//===----------------------------------------------------------------------===//
// Chained hashtable with resizing (the `hashtable` micro-benchmark)
//===----------------------------------------------------------------------===//

/// A put may trigger a rehash that touches the entire table — exactly the
/// behavior that makes TL2 abort heavily in hashtable-high (§6.3).
class HashtableCore {
public:
  struct Node {
    int64_t Key;
    int64_t Value;
    Node *Next = nullptr;
  };

  explicit HashtableCore(int64_t InitialBuckets = 64)
      : NumBuckets(InitialBuckets) {
    Buckets = Blocks.makeArray<Node *>(InitialBuckets);
  }

  template <typename Mem> bool put(Mem &&M, int64_t Key, int64_t Value) {
    int64_t N = M.read(&NumBuckets);
    Node **Table = M.read(&Buckets);
    int64_t Slot = hashOf(Key) % N;
    // Traverse the chain: update in place when the key exists.
    Node *Cur = M.read(&Table[Slot]);
    Node *Last = nullptr;
    while (Cur) {
      if (M.read(&Cur->Key) == Key) {
        M.write(&Cur->Value, Value);
        return false;
      }
      Last = Cur;
      Cur = M.read(&Cur->Next);
    }
    Node *Fresh = Blocks.make<Node>();
    Fresh->Key = Key;
    Fresh->Value = Value;
    if (Last)
      M.write(&Last->Next, Fresh);
    else
      M.write(&Table[Slot], Fresh);
    int64_t NewSize = M.read(&Size) + 1;
    M.write(&Size, NewSize);
    if (NewSize > 2 * N)
      rehash(M, 2 * N);
    return true;
  }

  template <typename Mem> bool get(Mem &&M, int64_t Key, int64_t &Out) {
    int64_t N = M.read(&NumBuckets);
    Node **Table = M.read(&Buckets);
    for (Node *Cur = M.read(&Table[hashOf(Key) % N]); Cur;
         Cur = M.read(&Cur->Next)) {
      if (M.read(&Cur->Key) == Key) {
        Out = M.read(&Cur->Value);
        return true;
      }
    }
    return false;
  }

  template <typename Mem> bool remove(Mem &&M, int64_t Key) {
    int64_t N = M.read(&NumBuckets);
    Node **Table = M.read(&Buckets);
    int64_t Slot = hashOf(Key) % N;
    Node *Prev = nullptr;
    Node *Cur = M.read(&Table[Slot]);
    while (Cur && M.read(&Cur->Key) != Key) {
      Prev = Cur;
      Cur = M.read(&Cur->Next);
    }
    if (!Cur)
      return false;
    Node *Next = M.read(&Cur->Next);
    if (Prev)
      M.write(&Prev->Next, Next);
    else
      M.write(&Table[Slot], Next);
    M.write(&Size, M.read(&Size) - 1);
    return true;
  }

  template <typename Mem> int64_t size(Mem &&M) { return M.read(&Size); }

private:
  static uint64_t hashOf(int64_t Key) {
    uint64_t H = static_cast<uint64_t>(Key) * 0x9e3779b97f4a7c15ULL;
    return H >> 17;
  }

  /// Re-buckets every node; touches the whole table.
  template <typename Mem> void rehash(Mem &&M, int64_t NewCount) {
    Node **Old = M.read(&Buckets);
    int64_t OldCount = M.read(&NumBuckets);
    Node **Fresh = Blocks.makeArray<Node *>(NewCount);
    for (int64_t I = 0; I < OldCount; ++I) {
      Node *Cur = M.read(&Old[I]);
      while (Cur) {
        Node *Next = M.read(&Cur->Next);
        int64_t Slot =
            hashOf(M.read(&Cur->Key)) % static_cast<uint64_t>(NewCount);
        M.write(&Cur->Next, M.read(&Fresh[Slot]));
        M.write(&Fresh[Slot], Cur);
        Cur = Next;
      }
    }
    M.write(&Buckets, Fresh);
    M.write(&NumBuckets, NewCount);
    // The old bucket array stays allocated until the table dies
    // (optimistic readers may still scan it).
  }

  BlockOwner Blocks;
  Node **Buckets;
  int64_t NumBuckets;
  int64_t Size = 0;
};

//===----------------------------------------------------------------------===//
// Fixed-size prepend hashtable (the `hashtable-2` micro-benchmark)
//===----------------------------------------------------------------------===//

/// put prepends to one bucket — a single shared store, the case where the
/// k=9 inference finds one fine-grain lock (§6.3, Fig. 8).
class Hashtable2Core {
public:
  using Node = HashtableCore::Node;

  explicit Hashtable2Core(int64_t BucketCount = 256)
      : NumBuckets(BucketCount) {
    Buckets = Blocks.makeArray<Node *>(BucketCount);
  }

  /// The address whose fine lock protects a put of \p Key.
  Node **bucketCell(int64_t Key) { return &Buckets[slotOf(Key)]; }

  template <typename Mem> void put(Mem &&M, int64_t Key, int64_t Value) {
    Node *Fresh = Blocks.make<Node>();
    Fresh->Key = Key;
    Fresh->Value = Value;
    Node **Cell = bucketCell(Key);
    M.write(&Fresh->Next, M.read(Cell));
    M.write(Cell, Fresh);
  }

  template <typename Mem> bool get(Mem &&M, int64_t Key, int64_t &Out) {
    for (Node *Cur = M.read(bucketCell(Key)); Cur;
         Cur = M.read(&Cur->Next)) {
      if (M.read(&Cur->Key) == Key) {
        Out = M.read(&Cur->Value);
        return true;
      }
    }
    return false;
  }

  template <typename Mem> bool remove(Mem &&M, int64_t Key) {
    Node **Cell = bucketCell(Key);
    Node *Prev = nullptr;
    Node *Cur = M.read(Cell);
    while (Cur && M.read(&Cur->Key) != Key) {
      Prev = Cur;
      Cur = M.read(&Cur->Next);
    }
    if (!Cur)
      return false;
    Node *Next = M.read(&Cur->Next);
    if (Prev)
      M.write(&Prev->Next, Next);
    else
      M.write(Cell, Next);
    return true;
  }

private:
  uint64_t slotOf(int64_t Key) const {
    return (static_cast<uint64_t>(Key) * 0x9e3779b97f4a7c15ULL) %
           static_cast<uint64_t>(NumBuckets);
  }

  BlockOwner Blocks;
  Node **Buckets;
  int64_t NumBuckets;
};

//===----------------------------------------------------------------------===//
// Red-black tree (the `rbtree` micro-benchmark)
//===----------------------------------------------------------------------===//

/// Classic left-leaning-free red-black insertion with rotations and
/// recoloring; removal uses tombstones (the concurrency shape — writes
/// along an unbounded path — is what the evaluation measures, and STAMP's
/// red-black tree exhibits the same lock/abort behavior).
class RbTreeCore {
public:
  struct Node {
    int64_t Key;
    int64_t Value;
    int64_t Red;  // 1 = red, 0 = black
    int64_t Dead; // tombstone flag
    Node *Left = nullptr;
    Node *Right = nullptr;
    Node *Parent = nullptr;
  };

  template <typename Mem> bool insert(Mem &&M, int64_t Key, int64_t Value) {
    Node *Parent = nullptr;
    Node *Cur = M.read(&Root);
    while (Cur) {
      int64_t CurKey = M.read(&Cur->Key);
      if (CurKey == Key) {
        if (M.read(&Cur->Dead) == 0)
          return false;
        M.write(&Cur->Dead, int64_t{0}); // revive the tombstone
        M.write(&Cur->Value, Value);
        return true;
      }
      Parent = Cur;
      Cur = Key < CurKey ? M.read(&Cur->Left) : M.read(&Cur->Right);
    }
    Node *Fresh = Blocks.make<Node>();
    Fresh->Key = Key;
    Fresh->Value = Value;
    Fresh->Red = 1;
    Fresh->Dead = 0;
    M.write(&Fresh->Parent, Parent);
    if (!Parent)
      M.write(&Root, Fresh);
    else if (Key < M.read(&Parent->Key))
      M.write(&Parent->Left, Fresh);
    else
      M.write(&Parent->Right, Fresh);
    fixupInsert(M, Fresh);
    return true;
  }

  template <typename Mem> bool get(Mem &&M, int64_t Key, int64_t &Out) {
    Node *Cur = M.read(&Root);
    while (Cur) {
      int64_t CurKey = M.read(&Cur->Key);
      if (CurKey == Key) {
        if (M.read(&Cur->Dead) != 0)
          return false;
        Out = M.read(&Cur->Value);
        return true;
      }
      Cur = Key < CurKey ? M.read(&Cur->Left) : M.read(&Cur->Right);
    }
    return false;
  }

  template <typename Mem> bool remove(Mem &&M, int64_t Key) {
    Node *Cur = M.read(&Root);
    while (Cur) {
      int64_t CurKey = M.read(&Cur->Key);
      if (CurKey == Key) {
        if (M.read(&Cur->Dead) != 0)
          return false;
        M.write(&Cur->Dead, int64_t{1});
        return true;
      }
      Cur = Key < CurKey ? M.read(&Cur->Left) : M.read(&Cur->Right);
    }
    return false;
  }

  /// Validates the red-black invariants (tests): root black, no red-red
  /// edges, equal black height. Not thread-safe.
  bool checkInvariants() const {
    if (Root && Root->Red)
      return false;
    int BlackHeight = -1;
    return checkNode(Root, 0, BlackHeight);
  }

  /// Number of live (non-tombstoned) keys; not thread-safe.
  int64_t liveCount() const { return liveCount(Root); }

private:
  template <typename Mem> Node *parentOf(Mem &&M, Node *N) {
    return N ? M.read(&N->Parent) : nullptr;
  }
  template <typename Mem> bool isRed(Mem &&M, Node *N) {
    return N && M.read(&N->Red) != 0;
  }

  template <typename Mem> void rotateLeft(Mem &&M, Node *X) {
    Node *Y = M.read(&X->Right);
    Node *Beta = M.read(&Y->Left);
    M.write(&X->Right, Beta);
    if (Beta)
      M.write(&Beta->Parent, X);
    Node *P = M.read(&X->Parent);
    M.write(&Y->Parent, P);
    if (!P)
      M.write(&Root, Y);
    else if (M.read(&P->Left) == X)
      M.write(&P->Left, Y);
    else
      M.write(&P->Right, Y);
    M.write(&Y->Left, X);
    M.write(&X->Parent, Y);
  }

  template <typename Mem> void rotateRight(Mem &&M, Node *X) {
    Node *Y = M.read(&X->Left);
    Node *Beta = M.read(&Y->Right);
    M.write(&X->Left, Beta);
    if (Beta)
      M.write(&Beta->Parent, X);
    Node *P = M.read(&X->Parent);
    M.write(&Y->Parent, P);
    if (!P)
      M.write(&Root, Y);
    else if (M.read(&P->Right) == X)
      M.write(&P->Right, Y);
    else
      M.write(&P->Left, Y);
    M.write(&Y->Right, X);
    M.write(&X->Parent, Y);
  }

  template <typename Mem> void fixupInsert(Mem &&M, Node *Z) {
    while (isRed(M, parentOf(M, Z))) {
      Node *P = M.read(&Z->Parent);
      Node *G = M.read(&P->Parent);
      if (!G)
        break;
      if (P == M.read(&G->Left)) {
        Node *Uncle = M.read(&G->Right);
        if (isRed(M, Uncle)) {
          M.write(&P->Red, int64_t{0});
          M.write(&Uncle->Red, int64_t{0});
          M.write(&G->Red, int64_t{1});
          Z = G;
        } else {
          if (Z == M.read(&P->Right)) {
            Z = P;
            rotateLeft(M, Z);
            P = M.read(&Z->Parent);
          }
          M.write(&P->Red, int64_t{0});
          M.write(&G->Red, int64_t{1});
          rotateRight(M, G);
        }
      } else {
        Node *Uncle = M.read(&G->Left);
        if (isRed(M, Uncle)) {
          M.write(&P->Red, int64_t{0});
          M.write(&Uncle->Red, int64_t{0});
          M.write(&G->Red, int64_t{1});
          Z = G;
        } else {
          if (Z == M.read(&P->Left)) {
            Z = P;
            rotateRight(M, Z);
            P = M.read(&Z->Parent);
          }
          M.write(&P->Red, int64_t{0});
          M.write(&G->Red, int64_t{1});
          rotateLeft(M, G);
        }
      }
    }
    Node *R = M.read(&Root);
    if (R)
      M.write(&R->Red, int64_t{0});
  }

  static bool checkNode(const Node *N, int Blacks, int &Expected) {
    if (!N) {
      if (Expected < 0)
        Expected = Blacks;
      return Blacks == Expected;
    }
    if (N->Red && ((N->Left && N->Left->Red) || (N->Right && N->Right->Red)))
      return false;
    int Next = Blacks + (N->Red ? 0 : 1);
    return checkNode(N->Left, Next, Expected) &&
           checkNode(N->Right, Next, Expected);
  }

  static int64_t liveCount(const Node *N) {
    if (!N)
      return 0;
    return (N->Dead ? 0 : 1) + liveCount(N->Left) + liveCount(N->Right);
  }

  BlockOwner Blocks;
  Node *Root = nullptr;
};

} // namespace workloads
} // namespace lockin

#endif // LOCKIN_WORKLOADS_DATASTRUCTURES_H
