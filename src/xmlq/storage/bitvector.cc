#include "xmlq/storage/bitvector.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace xmlq::storage {

BitVector BitVector::FromExternal(std::span<const uint64_t> words,
                                  size_t bits) {
  assert(words.size() == ExpectedWords(bits));
  BitVector out;
  out.words_ = ArrayRef<uint64_t>::View(words);
  out.size_ = bits;
  return out;
}

void BitVector::Freeze() {
  if (frozen_) return;
  size_t num_supers = (words_.size() + kWordsPerSuper - 1) / kWordsPerSuper;
  std::vector<uint64_t> supers(num_supers + 1, 0);
  uint64_t running = 0;
  for (size_t s = 0; s < num_supers; ++s) {
    supers[s] = running;
    size_t begin = s * kWordsPerSuper;
    size_t end = std::min(begin + kWordsPerSuper, words_.size());
    for (size_t w = begin; w < end; ++w) {
      running += static_cast<uint64_t>(std::popcount(words_[w]));
    }
  }
  supers[num_supers] = running;
  super_ranks_ = std::move(supers);
  ones_ = running;
  frozen_ = true;
}

size_t BitVector::Rank1(size_t i) const {
  assert(frozen_ && i <= size_);
  size_t word = i >> 6;
  size_t super = word / kWordsPerSuper;
  uint64_t rank = super_ranks_[super];
  for (size_t w = super * kWordsPerSuper; w < word; ++w) {
    rank += static_cast<uint64_t>(std::popcount(words_[w]));
  }
  size_t bit = i & 63;
  if (bit != 0) {
    rank += static_cast<uint64_t>(
        std::popcount(words_[word] & ((uint64_t{1} << bit) - 1)));
  }
  return static_cast<size_t>(rank);
}

namespace {

/// Position (0-63) of the (k+1)-th set bit in `word`; k < popcount(word).
int SelectInWord(uint64_t word, int k) {
  for (int i = 0; i < 64; ++i) {
    if ((word >> i) & 1) {
      if (k == 0) return i;
      --k;
    }
  }
  return -1;  // unreachable if precondition holds
}

}  // namespace

size_t BitVector::Select1(size_t k) const {
  assert(frozen_ && k < ones_);
  // Binary search the superblock directory.
  size_t lo = 0, hi = super_ranks_.size() - 1;
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (super_ranks_[mid] <= k) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  uint64_t remaining = k - super_ranks_[lo];
  size_t word = lo * kWordsPerSuper;
  while (true) {
    uint64_t pc = static_cast<uint64_t>(std::popcount(words_[word]));
    if (remaining < pc) break;
    remaining -= pc;
    ++word;
  }
  return word * 64 +
         static_cast<size_t>(SelectInWord(words_[word],
                                          static_cast<int>(remaining)));
}

size_t BitVector::Select0(size_t k) const {
  assert(frozen_ && k < size_ - ones_);
  // Zero-select is only used on small/auxiliary vectors; binary search rank.
  size_t lo = 0, hi = size_;  // invariant: Rank0(lo) <= k < Rank0(hi)
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (Rank0(mid) <= k) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace xmlq::storage
