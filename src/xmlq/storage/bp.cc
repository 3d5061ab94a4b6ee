#include "xmlq/storage/bp.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>

namespace xmlq::storage {

namespace {

/// The excess summary of each 8-bit chunk (bits LSB first), so Freeze walks
/// a word a byte at a time.
constexpr std::array<BalancedParens::ExcessBlock, 256> MakeByteExcess() {
  std::array<BalancedParens::ExcessBlock, 256> table{};
  for (int byte = 0; byte < 256; ++byte) {
    int32_t run = 0;
    int32_t mn = 8;
    int32_t mx = -8;
    for (int b = 0; b < 8; ++b) {
      run += ((byte >> b) & 1) ? 1 : -1;
      mn = std::min(mn, run);
      mx = std::max(mx, run);
    }
    table[byte] = {run, mn, mx};
  }
  return table;
}
constexpr std::array<BalancedParens::ExcessBlock, 256> kByteExcess =
    MakeByteExcess();

}  // namespace

BalancedParens BalancedParens::FromExternal(std::span<const uint64_t> words,
                                           size_t bits) {
  BalancedParens out;
  out.bits_ = BitVector::FromExternal(words, bits);
  out.Freeze();
  return out;
}

void BalancedParens::Freeze() {
  bits_.Freeze();
  const size_t n = bits_.size();
  const size_t num_words = (n + 63) / 64;
  std::vector<ExcessBlock> words(num_words);
  for (size_t w = 0; w < num_words; ++w) {
    const size_t valid = std::min<size_t>(64, n - w * 64);
    const uint64_t word = bits_.Word(w);
    int32_t run = 0;
    int32_t mn = std::numeric_limits<int32_t>::max();
    int32_t mx = std::numeric_limits<int32_t>::min();
    size_t b = 0;
    for (; b + 8 <= valid; b += 8) {
      const ExcessBlock& chunk = kByteExcess[(word >> b) & 0xff];
      mn = std::min(mn, run + chunk.min);
      mx = std::max(mx, run + chunk.max);
      run += chunk.total;
    }
    for (; b < valid; ++b) {
      run += ((word >> b) & 1) ? 1 : -1;
      mn = std::min(mn, run);
      mx = std::max(mx, run);
    }
    words[w] = ExcessBlock{run, mn, mx};
  }
  const size_t num_supers = (num_words + kWordsPerSuper - 1) / kWordsPerSuper;
  std::vector<ExcessBlock> supers(num_supers);
  for (size_t s = 0; s < num_supers; ++s) {
    const size_t begin = s * kWordsPerSuper;
    const size_t end = std::min(begin + kWordsPerSuper, num_words);
    int32_t run = 0;
    int32_t mn = std::numeric_limits<int32_t>::max();
    int32_t mx = std::numeric_limits<int32_t>::min();
    for (size_t w = begin; w < end; ++w) {
      mn = std::min(mn, run + words[w].min);
      mx = std::max(mx, run + words[w].max);
      run += words[w].total;
    }
    supers[s] = ExcessBlock{run, mn, mx};
  }
  words_ = std::move(words);
  supers_ = std::move(supers);
}

size_t BalancedParens::FwdSearch(size_t i, int64_t d) const {
  const int64_t target = Excess(i) + d;
  const size_t n = bits_.size();
  int64_t cur = Excess(i);
  size_t pos = i + 1;
  // Finish the word containing `pos` bit by bit.
  const size_t word_end = std::min(((pos >> 6) + 1) << 6, n);
  for (; pos < word_end && (pos & 63) != 0; ++pos) {
    cur += bits_.Get(pos) ? 1 : -1;
    if (cur == target) return pos;
  }
  if (pos >= n) return kNoPos;
  // Word-at-a-time with superblock skipping.
  size_t w = pos >> 6;
  while (w < words_.size()) {
    if ((w & (kWordsPerSuper - 1)) == 0) {
      size_t s = w / kWordsPerSuper;
      while (s < supers_.size() &&
             !(target >= cur + supers_[s].min &&
               target <= cur + supers_[s].max)) {
        cur += supers_[s].total;
        ++s;
      }
      w = s * kWordsPerSuper;
      if (w >= words_.size()) return kNoPos;
    }
    const ExcessBlock& blk = words_[w];
    if (target >= cur + blk.min && target <= cur + blk.max) {
      const size_t start = w << 6;
      const size_t end = std::min(start + 64, n);
      const uint64_t word = bits_.Word(w);
      for (size_t p = start; p < end; ++p) {
        cur += ((word >> (p & 63)) & 1) ? 1 : -1;
        if (cur == target) return p;
      }
      assert(false && "excess target must lie within flagged word");
      return kNoPos;
    }
    cur += blk.total;
    ++w;
  }
  return kNoPos;
}

int64_t BalancedParens::BwdSearch(size_t i, int64_t d) const {
  // Returns the largest j < i with excess(j) == Excess(i) + d, where j may
  // be the virtual position -1 (excess 0); returns -2 when no such j exists.
  const int64_t target = Excess(i) + d;
  if (i == 0) return target == 0 ? -1 : -2;
  int64_t cur = Excess(i) - (bits_.Get(i) ? 1 : -1);  // excess(i-1)
  size_t p = i - 1;
  while (true) {
    if (cur == target) return static_cast<int64_t>(p);
    if (p == 0) break;
    if ((p & 63) == 63) {
      // p sits on the last bit of word w; skip whole words/superblocks whose
      // excess range excludes the target.
      size_t w = p >> 6;
      while (true) {
        // After a skip, `p` (last bit of the current word) is an unchecked
        // candidate; on first entry this re-tests the outer loop's check.
        if (cur == target) return static_cast<int64_t>(p);
        if ((w & (kWordsPerSuper - 1)) == kWordsPerSuper - 1) {
          const size_t s = w / kWordsPerSuper;
          const ExcessBlock& sb = supers_[s];
          const int64_t sbase = cur - sb.total;
          if (!(target >= sbase + sb.min && target <= sbase + sb.max)) {
            cur = sbase;
            if (s == 0) return target == 0 ? -1 : -2;
            w = s * kWordsPerSuper - 1;
            p = (w << 6) + 63;
            continue;
          }
        }
        const ExcessBlock& blk = words_[w];
        const int64_t base = cur - blk.total;  // excess(w*64 - 1)
        if (target >= base + blk.min && target <= base + blk.max) {
          break;  // the target lies inside word w; scan it bit by bit
        }
        cur = base;
        if (w == 0) return target == 0 ? -1 : -2;
        --w;
        p = (w << 6) + 63;
      }
    }
    cur -= bits_.Get(p) ? 1 : -1;  // excess(p-1)
    --p;
  }
  return target == 0 ? -1 : -2;
}

size_t BalancedParens::FindClose(size_t i) const {
  assert(IsOpen(i));
  // Fast path: most subtrees the tree-pattern scans skip are small, so the
  // matching close paren usually sits within the next few words. A short
  // relative-depth scan avoids the excess (rank) computation entirely.
  const size_t limit = std::min(bits_.size(), i + 96);
  int depth = 0;
  for (size_t j = i; j < limit; ++j) {
    depth += bits_.Get(j) ? 1 : -1;
    if (depth == 0) return j;
  }
  return FwdSearch(i, -1);
}

size_t BalancedParens::FindOpen(size_t i) const {
  assert(!IsOpen(i));
  const int64_t p = BwdSearch(i, 0);
  assert(p >= -1);
  return static_cast<size_t>(p + 1);
}

size_t BalancedParens::Enclose(size_t i) const {
  assert(IsOpen(i));
  if (i == 0) return kNoPos;
  const int64_t p = BwdSearch(i, -2);
  if (p < -1) return kNoPos;
  return static_cast<size_t>(p + 1);
}

size_t BalancedParens::MemoryUsage() const {
  return bits_.MemoryUsage() + words_.size() * sizeof(ExcessBlock) +
         supers_.size() * sizeof(ExcessBlock);
}

}  // namespace xmlq::storage
