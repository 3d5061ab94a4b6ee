#ifndef XMLQ_STORAGE_BITVECTOR_H_
#define XMLQ_STORAGE_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "xmlq/base/array_ref.h"

namespace xmlq::storage {

/// Append-only bit sequence with O(1) rank and O(log n) select after
/// `Freeze()`. This is the primitive underneath the balanced-parentheses
/// structure of the succinct storage scheme (paper §4.2).
///
/// Usage: push bits (or whole runs), call Freeze() once, then query.
///
/// Storage is an ArrayRef, so a vector can alternatively be built over
/// externally owned words (a section of an mmap'd snapshot) via FromExternal
/// — the zero-copy open path; Freeze() then builds the directory on the heap.
class BitVector {
 public:
  BitVector() = default;

  /// Borrows `words` (e.g. a mapped snapshot section) as the payload of a
  /// `bits`-bit vector, which the caller then Freeze()s. `words` must hold
  /// ceil(bits/64) words with zero bits past `bits` (callers validate; see
  /// snapshot_reader), and must outlive the BitVector and every copy of it.
  static BitVector FromExternal(std::span<const uint64_t> words, size_t bits);

  /// Appends one bit. Must not be called after Freeze().
  void PushBack(bool bit) {
    size_t word = size_ >> 6;
    if (word == words_.size()) words_.PushBack(0);
    if (bit) words_.MutableAt(word) |= uint64_t{1} << (size_ & 63);
    ++size_;
  }

  /// Number of bits.
  size_t size() const { return size_; }

  /// Bit at position `i` (0-based). `i < size()`.
  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Builds the rank/select directories. Idempotent.
  void Freeze();

  /// Number of 1-bits in positions [0, i). `i <= size()`. Requires Freeze().
  size_t Rank1(size_t i) const;
  /// Number of 0-bits in positions [0, i).
  size_t Rank0(size_t i) const { return i - Rank1(i); }

  /// Position of the (k+1)-th 1-bit (0-based k). k < Rank1(size()).
  size_t Select1(size_t k) const;
  /// Position of the (k+1)-th 0-bit.
  size_t Select0(size_t k) const;

  /// Total 1-bits.
  size_t OneCount() const { return ones_; }

  /// Bytes referenced by payload + directories (owned or borrowed); for the
  /// storage experiment.
  size_t MemoryUsage() const {
    return words_.size() * sizeof(uint64_t) +
           super_ranks_.size() * sizeof(uint64_t);
  }
  /// Heap bytes actually owned (the directory only, when the words are
  /// borrowed from a mapped snapshot).
  size_t HeapBytes() const {
    return words_.OwnedBytes() + super_ranks_.capacity() * sizeof(uint64_t);
  }

  // -- Snapshot serialization hooks ----------------------------------------

  /// Raw payload word `w` (for the BP directory build / excess search).
  uint64_t Word(size_t w) const { return words_[w]; }

  /// Raw 64-bit payload words, ceil(size()/64) of them.
  std::span<const uint64_t> WordSpan() const { return words_.span(); }
  /// Superblock rank directory (one entry per superblock, plus the total).
  /// Empty before Freeze().
  std::span<const uint64_t> SuperRankSpan() const { return super_ranks_; }
  static constexpr size_t kWordsPerSuper = 8;  // 512-bit superblocks

  /// Payload words a `bits`-bit vector holds.
  static size_t ExpectedWords(size_t bits) { return (bits + 63) / 64; }

 private:

  ArrayRef<uint64_t> words_;
  size_t size_ = 0;
  bool frozen_ = false;
  size_t ones_ = 0;
  // super_ranks_[s] = number of 1-bits before superblock s.
  std::vector<uint64_t> super_ranks_;
};

}  // namespace xmlq::storage

#endif  // XMLQ_STORAGE_BITVECTOR_H_
