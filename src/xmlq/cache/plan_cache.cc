#include "xmlq/cache/plan_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "xmlq/base/fault_injector.h"

namespace xmlq::cache {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Pre-order walk over a plan tree (and the pattern graphs hanging off it
/// are visited by the callers directly — they are payloads, not children).
template <typename Expr, typename Fn>
void WalkPlan(Expr& expr, const Fn& fn) {
  fn(expr);
  for (const auto& child : expr.children) {
    if (child) WalkPlan(*child, fn);
  }
}

/// Number slots match number-typed predicates by value: an unnested
/// `where` conjunct spells its number literal from the parsed double, so
/// the sentinel's text need not survive the rewrite.
bool SlotMatchesPredicate(const BindSlot& slot,
                          const algebra::ValuePredicate& pred) {
  if (pred.IsNumberTyped() != slot.numeric) return false;
  if (slot.numeric) return pred.number() == slot.sentinel_number;
  return pred.literal() == slot.sentinel;
}

bool SlotMatchesItem(const BindSlot& slot, const algebra::Item& item) {
  if (slot.numeric) {
    return item.IsNumber() && item.number() == slot.sentinel_number;
  }
  return item.IsString() && item.str() == slot.sentinel;
}

}  // namespace

std::string CacheStats::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "plan-cache: hits=%llu misses=%llu bypass=%llu inserts=%llu "
                "insert_faults=%llu evictions=%llu invalidations=%llu "
                "resident_bytes=%llu entries=%llu",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(bypass),
                static_cast<unsigned long long>(inserts),
                static_cast<unsigned long long>(insert_faults),
                static_cast<unsigned long long>(evictions),
                static_cast<unsigned long long>(invalidations),
                static_cast<unsigned long long>(resident_bytes),
                static_cast<unsigned long long>(entries));
  return buf;
}

PlanCache::PlanCache(CacheConfig config) : config_(config) {
  const size_t count = NextPowerOfTwo(std::max<size_t>(1, config.shard_count));
  shard_mask_ = count - 1;
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key)&shard_mask_];
}

const PlanCache::Shard& PlanCache::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key)&shard_mask_];
}

void PlanCache::EraseLocked(
    Shard& shard, std::list<std::shared_ptr<CachedPlan>>::iterator it) {
  const CachedPlan& entry = **it;
  shard.bytes -= entry.bytes;
  resident_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  shard.map.erase(entry.key);
  shard.lru.erase(it);
}

std::shared_ptr<CachedPlan> PlanCache::Lookup(const std::string& key,
                                              uint64_t generation) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  std::shared_ptr<CachedPlan> entry = *it->second;
  if (entry->generation != generation) {
    // Compiled against a catalog that no longer exists; drop on the spot.
    EraseLocked(shard, it->second);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  it->second = shard.lru.begin();
  hits_.fetch_add(1, std::memory_order_relaxed);
  entry->hit_count.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

std::shared_ptr<CachedPlan> PlanCache::Peek(const std::string& key,
                                            uint64_t generation) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  std::shared_ptr<CachedPlan> entry = *it->second;
  if (entry->generation != generation) return nullptr;
  return entry;
}

bool PlanCache::Insert(std::shared_ptr<CachedPlan> entry) {
  if (XMLQ_FAULT("cache.plan.insert")) {
    insert_faults_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const size_t share = config_.memory_budget_bytes / shards_.size();
  if (entry->bytes > share) return false;  // never admissible
  Shard& shard = ShardFor(entry->key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.count(entry->key)) return false;  // first writer won
  while (shard.bytes + entry->bytes > share && !shard.lru.empty()) {
    EraseLocked(shard, std::prev(shard.lru.end()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.bytes += entry->bytes;
  resident_bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.push_front(entry);
  shard.map.emplace(entry->key, shard.lru.begin());
  return true;
}

void PlanCache::InvalidateGeneration(uint64_t live_generation) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      auto next = std::next(it);
      if ((*it)->generation != live_generation) {
        EraseLocked(shard, it);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
      }
      it = next;
    }
  }
}

CacheStats PlanCache::Stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bypass = bypass_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.insert_faults = insert_faults_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

bool ValidateSentinels(const algebra::LogicalExpr& plan,
                       const std::vector<BindSlot>& slots) {
  std::vector<size_t> seen(slots.size(), 0);
  WalkPlan(plan, [&](const algebra::LogicalExpr& e) {
    for (size_t i = 0; i < slots.size(); ++i) {
      if (e.op == algebra::LogicalOp::kSelectValue &&
          SlotMatchesPredicate(slots[i], e.predicate)) {
        seen[i]++;
      }
      if (e.op == algebra::LogicalOp::kLiteral &&
          SlotMatchesItem(slots[i], e.literal)) {
        seen[i]++;
      }
      if (e.pattern) {
        for (size_t v = 0; v < e.pattern->VertexCount(); ++v) {
          for (const auto& pred : e.pattern->vertex(v).predicates) {
            if (SlotMatchesPredicate(slots[i], pred)) seen[i]++;
          }
        }
      }
    }
  });
  // "At least once": rewrites may duplicate a predicate (filter grafting),
  // and BindPlan replaces every occurrence. Zero occurrences means the
  // compile pipeline put the literal somewhere the binder can't reach.
  return std::all_of(seen.begin(), seen.end(),
                     [](size_t n) { return n >= 1; });
}

algebra::LogicalExprPtr BindPlan(const algebra::LogicalExpr& tmpl,
                                 const std::vector<BindSlot>& slots,
                                 const std::vector<std::string>& values) {
  algebra::LogicalExprPtr bound = tmpl.Clone();
  WalkPlan(*bound, [&](algebra::LogicalExpr& e) {
    for (size_t i = 0; i < slots.size(); ++i) {
      const BindSlot& slot = slots[i];
      if (e.op == algebra::LogicalOp::kSelectValue &&
          SlotMatchesPredicate(slot, e.predicate)) {
        e.predicate.set_literal(values[i]);
      }
      if (e.op == algebra::LogicalOp::kLiteral &&
          SlotMatchesItem(slot, e.literal)) {
        e.literal = slot.numeric
                        ? algebra::Item(std::strtod(values[i].c_str(), nullptr))
                        : algebra::Item(values[i]);
      }
      if (e.pattern) {
        for (size_t v = 0; v < e.pattern->VertexCount(); ++v) {
          for (auto& pred : e.pattern->mutable_vertex(
                                static_cast<algebra::VertexId>(v))
                                .predicates) {
            if (SlotMatchesPredicate(slot, pred)) pred.set_literal(values[i]);
          }
        }
      }
    }
  });
  return bound;
}

size_t PlanFootprint(const algebra::LogicalExpr& plan) {
  size_t bytes = 0;
  WalkPlan(plan, [&](const algebra::LogicalExpr& e) {
    bytes += sizeof(algebra::LogicalExpr);
    bytes += e.str.capacity() + e.predicate.literal().capacity();
    bytes += e.clauses.capacity() * sizeof(algebra::FlworClause);
    if (e.pattern) {
      bytes += sizeof(algebra::PatternGraph);
      for (size_t v = 0; v < e.pattern->VertexCount(); ++v) {
        const auto& vertex = e.pattern->vertex(v);
        bytes += sizeof(vertex) + vertex.label.capacity();
        for (const auto& pred : vertex.predicates) {
          bytes += sizeof(pred) + pred.literal().capacity();
        }
      }
    }
    if (e.schema) bytes += 256;  // coarse: schemas only occur un-cached paths
    if (e.literal.IsString()) bytes += e.literal.str().capacity();
  });
  return bytes;
}

}  // namespace xmlq::cache
