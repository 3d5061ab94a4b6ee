#ifndef XMLQ_STORAGE_BP_H_
#define XMLQ_STORAGE_BP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "xmlq/storage/bitvector.h"

namespace xmlq::storage {

/// Sentinel for "no position" returned by navigation queries.
inline constexpr size_t kNoPos = SIZE_MAX;

/// Balanced-parentheses sequence with excess search.
///
/// The succinct storage scheme (paper §4.2) linearizes the tree in pre-order,
/// "keeping balanced parentheses to denote the beginning and ending of a
/// subtree". A 1-bit is an open parenthesis, a 0-bit a close parenthesis.
/// Tree navigation reduces to excess arithmetic:
///
///   first_child(v)  = v+1 if open, else leaf
///   next_sibling(v) = FindClose(v)+1 if open, else none
///   parent(v)       = Enclose(v)
///
/// Excess search is accelerated by a two-level (word / superblock) directory
/// of {total, min, max} excess deltas, giving near-O(1) practical cost with
/// O(n / 64) worst case per query — the classic range-min-max layout without
/// the logarithmic tree on top, which is unnecessary at the document sizes
/// the experiments use.
class BalancedParens {
 public:
  /// One excess-directory entry.
  struct ExcessBlock {
    int32_t total = 0;  // excess delta across the block
    int32_t min = 0;    // min prefix excess within the block (relative)
    int32_t max = 0;    // max prefix excess within the block (relative)
  };

  static constexpr size_t kWordsPerSuper = 64;  // 4096-bit superblocks

  BalancedParens() = default;

  /// Borrows `words` (a mapped snapshot section) as a `bits`-bit sequence
  /// and builds the rank and excess directories over it with Freeze() — the
  /// open path. Same preconditions as BitVector::FromExternal.
  static BalancedParens FromExternal(std::span<const uint64_t> words,
                                     size_t bits);

  /// Appends an open (true) / close (false) parenthesis.
  void PushBack(bool open) { bits_.PushBack(open); }

  /// Builds directories. The sequence must be balanced.
  void Freeze();

  size_t size() const { return bits_.size(); }
  bool IsOpen(size_t i) const { return bits_.Get(i); }

  /// Number of open parens in [0, i).
  size_t Rank1(size_t i) const { return bits_.Rank1(i); }
  /// Position of the (k+1)-th open paren.
  size_t Select1(size_t k) const { return bits_.Select1(k); }
  /// Number of tree nodes (= number of open parens).
  size_t NodeCount() const { return bits_.OneCount(); }

  /// excess(i) = opens - closes in positions [0, i].
  int64_t Excess(size_t i) const {
    return 2 * static_cast<int64_t>(bits_.Rank1(i + 1)) -
           static_cast<int64_t>(i + 1);
  }

  /// Matching close paren of the open paren at `i`.
  size_t FindClose(size_t i) const;
  /// Matching open paren of the close paren at `i`.
  size_t FindOpen(size_t i) const;
  /// Open paren of the tightest pair enclosing position `i` (the parent of
  /// the node whose open paren is at `i`); kNoPos for the root.
  size_t Enclose(size_t i) const;

  /// Number of nodes in the subtree rooted at open paren `i`.
  size_t SubtreeSize(size_t i) const {
    return (FindClose(i) - i + 1) / 2;
  }

  /// Depth of the node at open paren `i` (root = 0). O(1) via excess.
  size_t DepthAt(size_t i) const {
    return static_cast<size_t>(Excess(i)) - 1;
  }

  /// Bytes referenced by the sequence plus directories (owned or borrowed).
  size_t MemoryUsage() const;
  /// Heap bytes actually owned (the directories only, when the bits are
  /// borrowed from a mapped snapshot).
  size_t HeapBytes() const {
    return bits_.HeapBytes() +
           (words_.capacity() + supers_.capacity()) * sizeof(ExcessBlock);
  }

  // -- Raw parts (snapshot writer, tests) ---------------------------------

  const BitVector& bits() const { return bits_; }
  std::span<const ExcessBlock> WordDirSpan() const { return words_; }
  std::span<const ExcessBlock> SuperDirSpan() const { return supers_; }

 private:
  /// Smallest j > i with excess(j) == excess(i) + d (d < 0 in our uses).
  size_t FwdSearch(size_t i, int64_t d) const;
  /// Largest j < i with excess(j) == excess(i) + d. Returns -1 for the
  /// virtual position before the sequence (excess 0), -2 if no match.
  int64_t BwdSearch(size_t i, int64_t d) const;

  BitVector bits_;
  std::vector<ExcessBlock> words_;   // one per 64-bit word
  std::vector<ExcessBlock> supers_;  // one per kWordsPerSuper words
};

}  // namespace xmlq::storage

#endif  // XMLQ_STORAGE_BP_H_
