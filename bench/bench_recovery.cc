// Experiment R5: the price of crash safety. Persist pays two fsync barriers
// (snapshot file + parent dir, then the manifest append) so that a crash at
// any instruction boundary recovers to exactly the old or the new catalog;
// Attach pays a whole-file CRC-32C pass over every snapshot before serving
// it; Scrub re-reads and re-verifies the store. These benchmarks put
// numbers on each of those, plus the pure journal-replay cost, so the
// durability tax is visible next to the R2 open-time wins it protects.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_util.h"
#include "xmlq/api/database.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/storage/manifest.h"
#include "xmlq/storage/snapshot.h"

namespace xmlq::bench {
namespace {

std::unique_ptr<xml::Document> Bib(int books, uint64_t seed) {
  datagen::BibOptions options;
  options.num_books = static_cast<size_t>(books);
  options.seed = seed;
  return datagen::GenerateBibliography(options);
}

void Die(const Status& status) {
  std::fprintf(stderr, "bench_recovery setup failed: %s\n",
               status.ToString().c_str());
  std::abort();
}

/// A store directory with `docs` persisted bibliography documents, built
/// once per size and reused by the attach/scrub benchmarks.
const std::string& SeededStore(int docs, int books) {
  static std::map<std::pair<int, int>, std::string> cache;
  auto& slot = cache[{docs, books}];
  if (slot.empty()) {
    slot = "bench_recovery_store_" + std::to_string(docs) + "_" +
           std::to_string(books);
    std::filesystem::remove_all(slot);
    api::Database db;
    auto attached = db.Attach(slot, storage::SnapshotOpenMode::kCopy);
    if (!attached.ok()) Die(attached.status());
    for (int i = 0; i < docs; ++i) {
      const std::string name = "doc" + std::to_string(i) + ".xml";
      Status status = db.RegisterDocument(name, Bib(books, 42 + i));
      if (status.ok()) status = db.Persist(name);
      if (!status.ok()) Die(status);
    }
  }
  return slot;
}

uint64_t StoreBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Durable save latency: WriteFileAtomic (write + fsync file + fsync dir)
/// plus the fsync'd manifest append. Each iteration replaces the previous
/// generation, which is the steady-state path of a long-lived store.
void BM_PersistDurable(benchmark::State& state) {
  const int books = static_cast<int>(state.range(0));
  const std::string dir = "bench_recovery_persist";
  std::filesystem::remove_all(dir);
  api::Database db;
  auto attached = db.Attach(dir, storage::SnapshotOpenMode::kCopy);
  if (!attached.ok()) Die(attached.status());
  Status status = db.RegisterDocument("doc.xml", Bib(books, 42));
  if (!status.ok()) Die(status);
  uint64_t bytes = 0;
  for (auto _ : state) {
    status = db.Persist("doc.xml");
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    bytes = StoreBytes(dir);
  }
  state.counters["store_bytes"] = static_cast<double>(bytes);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_PersistDurable)
    ->Name("R5/persist_durable")
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

/// Cold recovery: journal replay + whole-file CRC verification of every
/// snapshot + open. This is the startup cost a crash-safe store pays even
/// after a clean shutdown (the journal cannot be trusted to be clean).
void BM_AttachRecovery(benchmark::State& state) {
  const int docs = static_cast<int>(state.range(0));
  const std::string& dir = SeededStore(docs, /*books=*/500);
  uint64_t loaded = 0;
  for (auto _ : state) {
    api::Database db;
    auto report = db.Attach(dir, storage::SnapshotOpenMode::kMap);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    loaded = report->loaded.size();
    benchmark::DoNotOptimize(loaded);
  }
  state.counters["docs"] = static_cast<double>(loaded);
  state.counters["store_bytes"] = static_cast<double>(StoreBytes(dir));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(StoreBytes(dir)));
}
BENCHMARK(BM_AttachRecovery)
    ->Name("R5/attach_recovery")
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

/// Pure journal replay, isolated from snapshot verification: Manifest::Open
/// over a journal of register/remove churn. Shows the manifest stays cheap
/// even after long histories (replay is linear in journal bytes, and the
/// live store compacts nothing away).
void BM_ManifestReplay(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  static std::map<int, std::string> cache;
  std::string& dir = cache[records];
  if (dir.empty()) {
    dir = "bench_recovery_journal_" + std::to_string(records);
    std::filesystem::remove_all(dir);
    auto manifest = storage::Manifest::Open(dir);
    if (!manifest.ok()) Die(manifest.status());
    for (int i = 0; i < records; ++i) {
      storage::ManifestRecord record;
      record.op = (i % 8 == 7) ? storage::ManifestOp::kRemove
                               : storage::ManifestOp::kRegister;
      record.generation = manifest->NextGeneration();
      record.name = "doc" + std::to_string(i % 16) + ".xml";
      if (record.op == storage::ManifestOp::kRegister) {
        record.file = record.name + "-g" + std::to_string(record.generation) +
                      ".xqpack";
        record.snapshot_size = 1 << 20;
        record.snapshot_crc = 0xDEADBEEF;
      }
      Status status = manifest->Append(record);
      if (!status.ok()) Die(status);
    }
  }
  uint64_t applied = 0;
  for (auto _ : state) {
    auto manifest = storage::Manifest::Open(dir);
    if (!manifest.ok()) {
      state.SkipWithError(manifest.status().ToString().c_str());
      return;
    }
    applied = manifest->replay().records;
    benchmark::DoNotOptimize(manifest->entries().size());
  }
  state.counters["records"] = static_cast<double>(applied);
}
BENCHMARK(BM_ManifestReplay)
    ->Name("R5/manifest_replay")
    ->Arg(100)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// Scrub pass over a healthy store. Shallow re-reads every snapshot and
/// checks the manifest's whole-file CRC (the independent authority that
/// catches corruption hiding behind recomputed in-file checksums); deep
/// additionally re-validates every section and the semantic invariants.
void ScrubBenchmark(benchmark::State& state, bool deep) {
  const int docs = static_cast<int>(state.range(0));
  const std::string& dir = SeededStore(docs, /*books=*/500);
  api::Database db;
  auto attached = db.Attach(dir, storage::SnapshotOpenMode::kCopy);
  if (!attached.ok()) Die(attached.status());
  api::ScrubOptions options;
  options.deep = deep;
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto report = db.Scrub(options);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    if (report->corrupt != 0) {
      state.SkipWithError("healthy store reported corruption");
      return;
    }
    bytes = report->bytes_read;
  }
  state.counters["scrubbed_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

void BM_ScrubShallow(benchmark::State& state) {
  ScrubBenchmark(state, /*deep=*/false);
}
BENCHMARK(BM_ScrubShallow)
    ->Name("R5/scrub_shallow")
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_ScrubDeep(benchmark::State& state) {
  ScrubBenchmark(state, /*deep=*/true);
}
BENCHMARK(BM_ScrubDeep)
    ->Name("R5/scrub_deep")
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
