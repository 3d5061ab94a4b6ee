// Crash-safe catalog persistence (DESIGN.md §9): manifest journal replay
// (torn tails, bit flips, hostile bytes), the kill-point recovery matrix —
// fork a child, crash it at every write boundary of save/replace/remove,
// and assert recovery always yields exactly the old or exactly the new
// catalog state — snapshot quarantine on Attach, and the integrity
// scrubber, including single-bit corruption hiding behind recomputed
// in-file checksums.
//
// Crash model: the child dies with _Exit(2), which preserves everything
// already written to the page cache. A kill point between two syscalls
// therefore models a crash where all earlier writes persisted; torn writes
// are modeled by dedicated sites that write a prefix before dying.
//
// All temp paths are relative, so they land under the build tree.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/base/crc32.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/base/file_io.h"
#include "xmlq/base/random.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/storage/manifest.h"
#include "xmlq/storage/snapshot.h"
#include "xmlq/xml/serializer.h"

namespace xmlq {
namespace {

using api::Database;
using api::ScrubOptions;
using storage::Manifest;
using storage::ManifestOp;
using storage::ManifestRecord;
using storage::SnapshotOpenMode;

/// Removes the directory tree on construction and destruction, so a failed
/// earlier run never contaminates this one.
class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::unique_ptr<xml::Document> MakeBib(size_t books) {
  datagen::BibOptions options;
  options.num_books = books;
  return datagen::GenerateBibliography(options);
}

/// Serialized image of the named document in `db`, "" when absent — the
/// byte-identical oracle the crash matrix compares recovered states to.
std::string DocImage(const Database& db, const std::string& name) {
  const exec::IndexedDocument* doc = db.Get(name);
  return doc == nullptr ? std::string() : xml::Serialize(*doc->dom);
}

/// What a bib of `books` books serializes to (datagen is deterministic).
std::string ExpectedImage(size_t books) {
  return xml::Serialize(*MakeBib(books));
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteRaw(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Seeds `dir` with a 12-book "bib.xml" persisted at generation 1.
void SeedStore(const std::string& dir) {
  Database db;
  ASSERT_TRUE(db.Attach(dir, SnapshotOpenMode::kCopy).ok());
  ASSERT_TRUE(db.RegisterDocument("bib.xml", MakeBib(12)).ok());
  ASSERT_TRUE(db.Persist("bib.xml").ok());
}

/// The single live snapshot file in `dir` (fails the test when != 1).
std::string OnlySnapshotIn(const std::string& dir) {
  std::string found;
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 7 && name.ends_with(".xqpack")) {
      found = entry.path().string();
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << "expected exactly one live snapshot in " << dir;
  return found;
}

/// How a snapshot file is damaged at rest, behind the store's back.
enum class AtRest { kTruncated, kDeleted };

const char* AtRestName(AtRest damage) {
  return damage == AtRest::kTruncated ? "truncated" : "deleted";
}

/// Seeds `dir` with good1.xml (5 books, g1), victim.xml (12 books, g2) and
/// good2.xml (9 books, g3); returns victim.xml's snapshot path.
std::string SeedThreeDocStore(const std::string& dir) {
  Database db;
  EXPECT_TRUE(db.Attach(dir, SnapshotOpenMode::kCopy).ok());
  EXPECT_TRUE(db.RegisterDocument("good1.xml", MakeBib(5)).ok());
  EXPECT_TRUE(db.RegisterDocument("victim.xml", MakeBib(12)).ok());
  EXPECT_TRUE(db.RegisterDocument("good2.xml", MakeBib(9)).ok());
  EXPECT_TRUE(db.Persist("good1.xml").ok());
  EXPECT_TRUE(db.Persist("victim.xml").ok());
  EXPECT_TRUE(db.Persist("good2.xml").ok());
  return dir + "/victim.xml-g2.xqpack";
}

/// Truncates `path` to half its size, or deletes it.
void DamageAtRest(const std::string& path, AtRest damage) {
  if (damage == AtRest::kTruncated) {
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  } else {
    std::filesystem::remove(path);
  }
}

/// The reason a snapshot damaged that way is quarantined with: the read
/// comes up short of the manifest size, or the file cannot be opened.
const char* AtRestReason(AtRest damage) {
  return damage == AtRest::kTruncated ? "!= manifest size" : "cannot open";
}

// ---------------------------------------------------------------------------
// Manifest journal

TEST(ManifestTest, RoundTripRemoveAndGenerations) {
  TempDir dir("recovery_manifest_rt");
  auto manifest = Manifest::Open(dir.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ManifestRecord record;
  record.op = ManifestOp::kRegister;
  record.generation = manifest->NextGeneration();
  record.name = "a";
  record.file = "a-g1.xqpack";
  record.snapshot_size = 123;
  record.snapshot_crc = 0xabcdef01;
  ASSERT_TRUE(manifest->Append(record).ok());
  record.name = "b";
  record.generation = manifest->NextGeneration();
  record.file = "b-g2.xqpack";
  ASSERT_TRUE(manifest->Append(record).ok());
  ManifestRecord removal;
  removal.op = ManifestOp::kRemove;
  removal.generation = manifest->NextGeneration();
  removal.name = "a";
  ASSERT_TRUE(manifest->Append(removal).ok());

  auto reopened = Manifest::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->replay().records, 3u);
  EXPECT_EQ(reopened->replay().torn_bytes, 0u);
  ASSERT_EQ(reopened->entries().size(), 1u);
  const ManifestRecord& live = reopened->entries().begin()->second;
  EXPECT_EQ(live.name, "b");
  EXPECT_EQ(live.file, "b-g2.xqpack");
  EXPECT_EQ(live.snapshot_size, 123u);
  EXPECT_EQ(live.snapshot_crc, 0xabcdef01u);
  // Generations never restart, even after removals.
  EXPECT_EQ(reopened->NextGeneration(), 4u);
}

TEST(ManifestTest, CompactionSnapshotsLiveEntriesAtomically) {
  TempDir dir("recovery_manifest_compact");
  auto manifest = Manifest::Open(dir.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_FALSE(manifest->ShouldCompact()) << "empty journal must not compact";

  // Churn two names through many register/remove cycles plus one name that
  // stays live, so the journal is mostly dead weight.
  ManifestRecord keeper;
  keeper.op = ManifestOp::kRegister;
  keeper.generation = manifest->NextGeneration();
  keeper.name = "keeper";
  keeper.file = "keeper-g1.xqpack";
  keeper.snapshot_size = 321;
  keeper.snapshot_crc = 0xfeedbeef;
  ASSERT_TRUE(manifest->Append(keeper).ok());
  for (int cycle = 0; cycle < 40; ++cycle) {
    ManifestRecord churn;
    churn.op = ManifestOp::kRegister;
    churn.generation = manifest->NextGeneration();
    churn.name = "churn";
    churn.file = "churn-g" + std::to_string(churn.generation) + ".xqpack";
    ASSERT_TRUE(manifest->Append(churn).ok());
    churn.op = ManifestOp::kRemove;
    churn.generation = manifest->NextGeneration();
    churn.file.clear();
    ASSERT_TRUE(manifest->Append(churn).ok());
  }
  ASSERT_EQ(manifest->records(), 81u);
  ASSERT_TRUE(manifest->ShouldCompact());
  const uint64_t bloated = std::filesystem::file_size(manifest->journal_path());

  // An injected compaction failure leaves the journal fully intact (the
  // rewrite is atomic old-or-new) and the catalog still replayable.
  FaultInjector::Instance().Arm("store.manifest.compact", 0, 1);
  EXPECT_FALSE(manifest->Compact().ok());
  FaultInjector::Instance().Reset();
  EXPECT_EQ(std::filesystem::file_size(manifest->journal_path()), bloated);

  ASSERT_TRUE(manifest->Compact().ok());
  EXPECT_EQ(manifest->records(), 1u);
  EXPECT_FALSE(manifest->ShouldCompact());
  EXPECT_LT(std::filesystem::file_size(manifest->journal_path()), bloated / 10);

  // The compacted journal replays to the identical catalog, appends still
  // work, and generations never rewind for live entries.
  auto reopened = Manifest::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->replay().records, 1u);
  EXPECT_EQ(reopened->replay().torn_bytes, 0u);
  ASSERT_EQ(reopened->entries().size(), 1u);
  const ManifestRecord& live = reopened->entries().at("keeper");
  EXPECT_EQ(live.generation, 1u);
  EXPECT_EQ(live.file, "keeper-g1.xqpack");
  EXPECT_EQ(live.snapshot_size, 321u);
  EXPECT_EQ(live.snapshot_crc, 0xfeedbeefu);
  ManifestRecord after;
  after.op = ManifestOp::kRegister;
  after.generation = reopened->NextGeneration();
  after.name = "after";
  after.file = "after.xqpack";
  ASSERT_TRUE(reopened->Append(after).ok());
  auto final_state = Manifest::Open(dir.path());
  ASSERT_TRUE(final_state.ok());
  EXPECT_EQ(final_state->entries().size(), 2u);
}

TEST(ManifestTest, TornTailIsTruncatedAndJournalStaysAppendable) {
  TempDir dir("recovery_manifest_torn");
  std::string journal;
  {
    auto manifest = Manifest::Open(dir.path());
    ASSERT_TRUE(manifest.ok());
    journal = manifest->journal_path();
    ManifestRecord record;
    record.op = ManifestOp::kRegister;
    record.generation = manifest->NextGeneration();
    record.name = "doc";
    record.file = "doc-g1.xqpack";
    ASSERT_TRUE(manifest->Append(record).ok());
  }
  // A crashed append: half of the next record made it to disk.
  ManifestRecord torn;
  torn.op = ManifestOp::kRegister;
  torn.generation = 2;
  torn.name = "doc";
  torn.file = "doc-g2.xqpack";
  const std::string encoded = Manifest::EncodeRecord(torn);
  {
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    out.write(encoded.data(),
              static_cast<std::streamsize>(encoded.size() / 2));
  }
  const uint64_t torn_size = std::filesystem::file_size(journal);

  auto recovered = Manifest::Open(dir.path());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->replay().records, 1u);
  EXPECT_GT(recovered->replay().torn_bytes, 0u);
  EXPECT_FALSE(recovered->replay().torn_detail.empty());
  // Replay truncated the torn tail on disk, so the journal ends at a valid
  // record boundary again...
  EXPECT_LT(std::filesystem::file_size(journal), torn_size);
  EXPECT_EQ(std::filesystem::file_size(journal),
            recovered->replay().valid_bytes);
  // ...and the next append commits a fully valid record.
  torn.generation = recovered->NextGeneration();
  ASSERT_TRUE(recovered->Append(torn).ok());
  auto clean = Manifest::Open(dir.path());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->replay().records, 2u);
  EXPECT_EQ(clean->replay().torn_bytes, 0u);
  EXPECT_EQ(clean->entries().at("doc").file, "doc-g2.xqpack");
}

TEST(ManifestTest, BitFlipInvalidatesRecordAndSuffix) {
  TempDir dir("recovery_manifest_flip");
  std::string journal;
  uint64_t first_record_end = 0;
  {
    auto manifest = Manifest::Open(dir.path());
    ASSERT_TRUE(manifest.ok());
    journal = manifest->journal_path();
    ManifestRecord record;
    record.op = ManifestOp::kRegister;
    for (const char* name : {"a", "b", "c"}) {
      record.generation = manifest->NextGeneration();
      record.name = name;
      record.file = std::string(name) + ".xqpack";
      ASSERT_TRUE(manifest->Append(record).ok());
      if (first_record_end == 0) {
        first_record_end = std::filesystem::file_size(journal);
      }
    }
  }
  // Flip one bit inside the second record: it and everything after it must
  // be discarded (the fsync ordering means later records are later writes).
  std::string bytes = ReadRaw(journal);
  bytes[first_record_end + 8] ^= 0x40;
  WriteRaw(journal, bytes);

  auto recovered = Manifest::Open(dir.path());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->replay().records, 1u);
  EXPECT_NE(recovered->replay().torn_detail.find("checksum"),
            std::string::npos)
      << recovered->replay().torn_detail;
  ASSERT_EQ(recovered->entries().size(), 1u);
  EXPECT_EQ(recovered->entries().begin()->first, "a");
}

TEST(ManifestTest, CorruptHeaderIsPositionedError) {
  TempDir dir("recovery_manifest_hdr");
  std::filesystem::create_directories(dir.path());
  const std::string journal = dir.path() + "/catalog.xqm";
  WriteRaw(journal, "XQMANF\r\n garbage that is not a valid header at all");
  auto manifest = Manifest::Open(dir.path());
  ASSERT_FALSE(manifest.ok());
  EXPECT_NE(manifest.status().message().find("manifest"), std::string::npos);
  EXPECT_NE(manifest.status().message().find("offset"), std::string::npos);
}

TEST(ManifestTest, FuzzedJournalsNeverCrashReplay) {
  TempDir dir("recovery_manifest_fuzz");
  // A valid journal with three records, then 200 seeded mutations: replay
  // must always terminate with either a recovered prefix or a positioned
  // error — never a crash, hang, or huge allocation.
  std::string valid;
  {
    auto manifest = Manifest::Open(dir.path());
    ASSERT_TRUE(manifest.ok());
    ManifestRecord record;
    record.op = ManifestOp::kRegister;
    for (const char* name : {"x", "y", "z"}) {
      record.generation = manifest->NextGeneration();
      record.name = name;
      record.file = std::string(name) + ".xqpack";
      ASSERT_TRUE(manifest->Append(record).ok());
    }
    valid = ReadRaw(manifest->journal_path());
  }
  Rng rng(20260805);
  const std::string journal = dir.path() + "/catalog.xqm";
  for (int round = 0; round < 200; ++round) {
    std::string mutant = valid;
    const int edits = 1 + static_cast<int>(rng.Next() % 4);
    for (int e = 0; e < edits; ++e) {
      switch (rng.Next() % 3) {
        case 0:  // flip a byte
          mutant[rng.Next() % mutant.size()] ^=
              static_cast<char>(1 + rng.Next() % 255);
          break;
        case 1:  // truncate
          mutant.resize(rng.Next() % (mutant.size() + 1));
          break;
        case 2:  // append garbage
          for (uint64_t i = 0, n = rng.Next() % 64; i < n; ++i) {
            mutant.push_back(static_cast<char>(rng.Next()));
          }
          break;
      }
      if (mutant.empty()) mutant = "?";
    }
    WriteRaw(journal, mutant);
    auto result = Manifest::Open(dir.path());
    if (result.ok()) {
      EXPECT_LE(result->replay().valid_bytes, mutant.size());
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Kill-point recovery matrix

enum class CrashOp { kSave, kReplace, kRemove };

/// Forks a child that attaches the store, arms XMLQ_CRASH=`site`, and runs
/// `op`. Returns the child's exit code: 2 = killed at the site, 0 = the
/// operation completed without hitting it.
int RunCrashChild(const std::string& dir, CrashOp op,
                  const std::string& site) {
  const pid_t pid = fork();
  if (pid == 0) {
    // In the child: only _exit() paths from here on (no gtest teardown).
    Database db;
    if (!db.Attach(dir, SnapshotOpenMode::kCopy).ok()) _exit(3);
    Status status = Status::Ok();
    if (op == CrashOp::kSave || op == CrashOp::kReplace) {
      status =
          db.RegisterDocument("bib.xml", MakeBib(op == CrashOp::kSave ? 12
                                                                      : 25));
      if (!status.ok()) _exit(3);
    }
    ::setenv("XMLQ_CRASH", site.c_str(), 1);
    switch (op) {
      case CrashOp::kSave:
      case CrashOp::kReplace:
        status = db.Persist("bib.xml");
        break;
      case CrashOp::kRemove:
        status = db.Remove("bib.xml");
        break;
    }
    _exit(status.ok() ? 0 : 4);
  }
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

struct MatrixCase {
  CrashOp op;
  const char* label;
  std::vector<const char*> sites;
};

TEST(CrashMatrixTest, EveryKillPointRecoversToOldOrNewState) {
  // Every write boundary of each durable operation. The file.* sites fire
  // inside WriteSnapshot's atomic write and the manifest append; the
  // persist.*/remove.* sites bracket the operation's commit point.
  const std::vector<MatrixCase> matrix = {
      {CrashOp::kSave,
       "save",
       {"persist.begin", "file.atomic.torn", "file.atomic.tmp_written",
        "file.atomic.tmp_synced", "file.atomic.renamed",
        "persist.snapshot_written", "file.append.torn",
        "file.append.written", "file.append.synced", "persist.committed"}},
      {CrashOp::kReplace,
       "replace",
       {"persist.begin", "file.atomic.torn", "file.atomic.tmp_written",
        "file.atomic.tmp_synced", "file.atomic.renamed",
        "persist.snapshot_written", "file.append.torn",
        "file.append.written", "file.append.synced", "persist.committed"}},
      {CrashOp::kRemove,
       "remove",
       {"remove.begin", "file.append.torn", "file.append.written",
        "file.append.synced", "remove.committed"}},
  };
  const std::string old_image = ExpectedImage(12);
  const std::string new_image = ExpectedImage(25);

  for (const MatrixCase& test_case : matrix) {
    for (const char* site : test_case.sites) {
      SCOPED_TRACE(std::string(test_case.label) + " @ " + site);
      TempDir dir("recovery_matrix_store");
      if (test_case.op == CrashOp::kSave) {
        // Save starts from a store without the document.
        Database seed_db;
        ASSERT_TRUE(seed_db.Attach(dir.path(),
                                   SnapshotOpenMode::kCopy).ok());
      } else {
        SeedStore(dir.path());
      }
      const int exit_code = RunCrashChild(dir.path(), test_case.op, site);
      ASSERT_EQ(exit_code, 2) << "kill point never fired";

      Database recovered;
      auto report = recovered.Attach(dir.path(), SnapshotOpenMode::kCopy);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      // A crash must never cost us a *committed* snapshot: quarantine here
      // would mean the store tore.
      EXPECT_TRUE(report->quarantined.empty())
          << report->quarantined.front();

      const std::string expected_old =
          test_case.op == CrashOp::kSave ? std::string() : old_image;
      const std::string expected_new =
          test_case.op == CrashOp::kRemove
              ? std::string()
              : (test_case.op == CrashOp::kReplace ? new_image : old_image);
      const std::string image = DocImage(recovered, "bib.xml");
      EXPECT_TRUE(image == expected_old || image == expected_new)
          << "torn state: " << image.size() << " bytes, expected old ("
          << expected_old.size() << ") or new (" << expected_new.size()
          << ")";
      // The boundaries are deterministic under the page-cache crash model:
      // before any write → old; after the fsync'd commit append → new.
      if (std::string_view(site) == "persist.begin" ||
          std::string_view(site) == "remove.begin") {
        EXPECT_EQ(image, expected_old);
      }
      if (std::string_view(site) == "persist.committed" ||
          std::string_view(site) == "remove.committed") {
        EXPECT_EQ(image, expected_new);
      }
      // Recovery is idempotent: a second attach sees the same state.
      Database again;
      auto second = again.Attach(dir.path(), SnapshotOpenMode::kCopy);
      ASSERT_TRUE(second.ok());
      EXPECT_EQ(DocImage(again, "bib.xml"), image);
    }
  }
}

// ---------------------------------------------------------------------------
// Attach recovery & quarantine

TEST(DurableStoreTest, PersistAttachRoundTrip) {
  TempDir dir("recovery_roundtrip");
  {
    Database db;
    auto report = db.Attach(dir.path(), SnapshotOpenMode::kCopy);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->manifest_records, 0u);
    ASSERT_TRUE(db.RegisterDocument("bib.xml", MakeBib(12)).ok());
    ASSERT_TRUE(db.RegisterDocument("more.xml", MakeBib(5)).ok());
    ASSERT_TRUE(db.Persist("bib.xml").ok());
    ASSERT_TRUE(db.Persist("more.xml").ok());
  }
  Database db;
  auto report = db.Attach(dir.path(), SnapshotOpenMode::kMap);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded.size(), 2u);
  EXPECT_TRUE(report->quarantined.empty());
  EXPECT_EQ(DocImage(db, "bib.xml"), ExpectedImage(12));
  EXPECT_EQ(DocImage(db, "more.xml"), ExpectedImage(5));
  // Lowest generation becomes the default document.
  EXPECT_EQ(db.default_document(), "bib.xml");
  auto result = db.Query("count(doc(\"bib.xml\")//book)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->value.at(0).StringValue(), "12");
}

TEST(DurableStoreTest, ReplaceUnlinksOldGeneration) {
  TempDir dir("recovery_replace");
  SeedStore(dir.path());
  {
    Database db;
    ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
    ASSERT_TRUE(db.RegisterDocument("bib.xml", MakeBib(25)).ok());
    ASSERT_TRUE(db.Persist("bib.xml").ok());
  }
  // Exactly one live snapshot remains, and it is the new generation.
  const std::string snapshot = OnlySnapshotIn(dir.path());
  EXPECT_NE(snapshot.find("-g2"), std::string::npos) << snapshot;
  Database db;
  ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
  EXPECT_EQ(DocImage(db, "bib.xml"), ExpectedImage(25));
}

TEST(DurableStoreTest, PersistCompactsTheJournalPastTheThreshold) {
  TempDir dir("recovery_compact_e2e");
  const std::string journal =
      dir.path() + "/" + storage::kManifestFileName;
  {
    Database db;
    ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
    ASSERT_TRUE(db.RegisterDocument("bib.xml", MakeBib(12)).ok());
    // Each Persist of an already-persisted name appends one replace record;
    // crossing Manifest::kCompactMinRecords must trigger the in-line
    // compaction, collapsing the journal back to one record per live doc.
    uint64_t peak = 0;
    for (uint64_t i = 0; i < Manifest::kCompactMinRecords + 4; ++i) {
      ASSERT_TRUE(db.Persist("bib.xml").ok());
      peak = std::max(peak, std::filesystem::file_size(journal));
    }
    EXPECT_LT(std::filesystem::file_size(journal), peak / 8)
        << "journal never compacted";
  }
  // The compacted store recovers to the exact same catalog.
  Database db;
  auto report = db.Attach(dir.path(), SnapshotOpenMode::kCopy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded.size(), 1u);
  // One compacted record plus the appends that landed after the compact.
  EXPECT_LE(report->manifest_records, 5u) << "replayed a bloated journal";
  EXPECT_TRUE(report->quarantined.empty());
  EXPECT_EQ(DocImage(db, "bib.xml"), ExpectedImage(12));
  // Exactly one snapshot file survived all the churn.
  OnlySnapshotIn(dir.path());
}

TEST(DurableStoreTest, RemoveIsDurable) {
  TempDir dir("recovery_remove");
  SeedStore(dir.path());
  {
    Database db;
    ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
    ASSERT_TRUE(db.Remove("bib.xml").ok());
    EXPECT_FALSE(db.Contains("bib.xml"));
  }
  Database db;
  auto report = db.Attach(dir.path(), SnapshotOpenMode::kCopy);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->loaded.empty());
  EXPECT_FALSE(db.Contains("bib.xml"));
}

TEST(DurableStoreTest, AttachQuarantinesCorruptSnapshotKeepsServingRest) {
  TempDir dir("recovery_quarantine");
  {
    Database db;
    ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
    ASSERT_TRUE(db.RegisterDocument("good.xml", MakeBib(5)).ok());
    ASSERT_TRUE(db.RegisterDocument("bad.xml", MakeBib(12)).ok());
    ASSERT_TRUE(db.Persist("good.xml").ok());
    ASSERT_TRUE(db.Persist("bad.xml").ok());
  }
  // Flip one bit in bad.xml's snapshot.
  const std::string victim = dir.path() + "/bad.xml-g2.xqpack";
  std::string bytes = ReadRaw(victim);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x10;
  WriteRaw(victim, bytes);

  Database db;
  auto report = db.Attach(dir.path(), SnapshotOpenMode::kCopy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->quarantined.size(), 1u);
  EXPECT_NE(report->quarantined[0].find("bad.xml"), std::string::npos);
  EXPECT_NE(report->quarantined[0].find("checksum"), std::string::npos)
      << report->quarantined[0];
  // The evidence is kept aside; the healthy document keeps serving.
  EXPECT_TRUE(std::filesystem::exists(victim + ".quarantined"));
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_FALSE(db.Contains("bad.xml"));
  EXPECT_EQ(DocImage(db, "good.xml"), ExpectedImage(5));
  // The quarantine is journaled: the next attach does not retry the file.
  Database again;
  auto second = again.Attach(dir.path(), SnapshotOpenMode::kCopy);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->quarantined.empty());
}

TEST(DurableStoreTest, AttachQuarantinesSnapshotTruncatedOrDeletedAtRest) {
  for (const AtRest damage : {AtRest::kTruncated, AtRest::kDeleted}) {
    for (const SnapshotOpenMode mode :
         {SnapshotOpenMode::kCopy, SnapshotOpenMode::kMap}) {
      SCOPED_TRACE(std::string(AtRestName(damage)) +
                   (mode == SnapshotOpenMode::kMap ? ", mmap" : ", copy"));
      TempDir dir("recovery_at_rest_attach");
      const std::string victim = SeedThreeDocStore(dir.path());
      DamageAtRest(victim, damage);

      Database db;
      auto report = db.Attach(dir.path(), mode);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      // Manifest (name) order; the damaged snapshot alone is quarantined.
      EXPECT_EQ(report->loaded,
                (std::vector<std::string>{
                    "good1.xml (g1, good1.xml-g1.xqpack)",
                    "good2.xml (g3, good2.xml-g3.xqpack)"}));
      ASSERT_EQ(report->quarantined.size(), 1u);
      const std::string& line = report->quarantined[0];
      EXPECT_EQ(line.rfind("victim.xml (victim.xml-g2.xqpack): ", 0), 0u)
          << line;
      EXPECT_NE(line.find(AtRestReason(damage)), std::string::npos) << line;
      // A truncated file is kept aside as evidence; a deleted one left none.
      EXPECT_EQ(std::filesystem::exists(victim + ".quarantined"),
                damage == AtRest::kTruncated);
      EXPECT_FALSE(std::filesystem::exists(victim));
      EXPECT_FALSE(db.Contains("victim.xml"));
      EXPECT_EQ(DocImage(db, "good1.xml"), ExpectedImage(5));
      EXPECT_EQ(DocImage(db, "good2.xml"), ExpectedImage(9));

      // The quarantine is journaled: the next attach does not retry it.
      Database again;
      auto second = again.Attach(dir.path(), mode);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      EXPECT_EQ(second->loaded, report->loaded);
      EXPECT_TRUE(second->quarantined.empty());
    }
  }
}

// Remove, the replicated remove and a scrub that finds a mapped document's
// bytes corrupt all drop through one catalog step: each re-picks the
// default document as the first remaining name, the way Remove always has.
TEST(DurableStoreTest, EveryDropPathRepicksTheDefaultDocumentAlike) {
  enum class Drop { kRemove, kReplicatedRemove, kQuarantine };
  for (const Drop drop :
       {Drop::kRemove, Drop::kReplicatedRemove, Drop::kQuarantine}) {
    SCOPED_TRACE(static_cast<int>(drop));
    TempDir dir("recovery_drop_default");
    {
      // m.xml is persisted first (g1), so Attach makes it the default;
      // z.xml is next by generation, b.xml first by name.
      Database seed;
      ASSERT_TRUE(seed.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
      for (const char* name : {"m.xml", "z.xml", "b.xml"}) {
        ASSERT_TRUE(seed.RegisterDocument(name, MakeBib(5)).ok());
        ASSERT_TRUE(seed.Persist(name).ok());
      }
    }
    Database db;
    ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kMap).ok());
    ASSERT_EQ(db.default_document(), "m.xml");
    switch (drop) {
      case Drop::kRemove:
        ASSERT_TRUE(db.Remove("m.xml").ok());
        break;
      case Drop::kReplicatedRemove:
        ASSERT_TRUE(db.ApplyReplicatedRemove("m.xml", 4).ok());
        break;
      case Drop::kQuarantine: {
        // The mapping reads the corrupt bytes too, so the revalidated
        // in-memory copy fails as well and the document is dropped.
        const std::string victim = dir.path() + "/m.xml-g1.xqpack";
        std::string bytes = ReadRaw(victim);
        bytes[bytes.size() / 2] ^= 0x01;
        WriteRaw(victim, bytes);
        auto report = db.Scrub(ScrubOptions{});
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        EXPECT_EQ(report->corrupt, 1u);
        ASSERT_EQ(report->notes.size(), 1u);
        EXPECT_NE(report->notes[0].find("document dropped"),
                  std::string::npos)
            << report->ToString();
        break;
      }
    }
    EXPECT_FALSE(db.Contains("m.xml"));
    EXPECT_EQ(db.default_document(), "b.xml");
    auto titles = db.QueryPath("//book/title");
    ASSERT_TRUE(titles.ok()) << titles.status().ToString();
    EXPECT_EQ(titles->value.size(), 5u);
  }
}

TEST(DurableStoreTest, AttachSweepsOrphanFiles) {
  TempDir dir("recovery_orphans");
  SeedStore(dir.path());
  // An uncommitted snapshot (Persist crashed before its manifest append)
  // and a torn atomic-write temp file.
  WriteRaw(dir.path() + "/bib.xml-g9.xqpack", "uncommitted");
  WriteRaw(dir.path() + "/bib.xml-g9.xqpack.tmp", "torn");
  Database db;
  auto report = db.Attach(dir.path(), SnapshotOpenMode::kCopy);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->orphans_removed.size(), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/bib.xml-g9.xqpack"));
  EXPECT_FALSE(
      std::filesystem::exists(dir.path() + "/bib.xml-g9.xqpack.tmp"));
  // The committed generation survived the sweep.
  EXPECT_EQ(DocImage(db, "bib.xml"), ExpectedImage(12));
}

TEST(DurableStoreTest, ErrorsAreActionable) {
  TempDir dir("recovery_errors");
  Database db;
  ASSERT_TRUE(db.RegisterDocument("bib.xml", MakeBib(3)).ok());
  const Status unattached = db.Persist("bib.xml");
  ASSERT_FALSE(unattached.ok());
  EXPECT_NE(unattached.message().find("Attach"), std::string::npos);
  ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
  const auto twice = db.Attach(dir.path(), SnapshotOpenMode::kCopy);
  ASSERT_FALSE(twice.ok());
  EXPECT_NE(twice.status().message().find("already attached"),
            std::string::npos);
  EXPECT_FALSE(db.Persist("missing.xml").ok());
  EXPECT_FALSE(db.Remove("missing.xml").ok());
  EXPECT_EQ(db.store_dir(), dir.path());
}

// ---------------------------------------------------------------------------
// Integrity scrubber

/// Flips one bit in a section payload of an xqpack image and *recomputes*
/// the section CRC, table CRC and header CRC, so every in-file checksum is
/// consistent with the corrupted bytes — the cover-your-tracks corruption
/// only the manifest's independently-stored whole-file CRC can catch.
std::string CorruptBehindRecomputedChecksums(std::string image,
                                             uint64_t payload_byte) {
  storage::SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<storage::SnapshotSection> table(header.section_count);
  std::memcpy(table.data(), image.data() + sizeof(header),
              table.size() * sizeof(storage::SnapshotSection));
  // Find the section containing the payload_byte-th payload byte.
  uint64_t remaining = payload_byte;
  for (storage::SnapshotSection& section : table) {
    if (section.size == 0) continue;
    if (remaining >= section.size) {
      remaining -= section.size;
      continue;
    }
    image[section.offset + remaining] ^= 0x04;
    section.crc = Crc32(image.data() + section.offset, section.size);
    break;
  }
  header.table_crc =
      Crc32(table.data(), table.size() * sizeof(storage::SnapshotSection));
  header.header_crc = 0;
  header.header_crc = Crc32(&header, sizeof(header));
  std::memcpy(image.data(), &header, sizeof(header));
  std::memcpy(image.data() + sizeof(header), table.data(),
              table.size() * sizeof(storage::SnapshotSection));
  return image;
}

TEST(ScrubTest, CleanStorePasses) {
  TempDir dir("recovery_scrub_clean");
  SeedStore(dir.path());
  Database db;
  ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
  ScrubOptions deep;
  deep.deep = true;
  auto report = db.Scrub(deep);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_checked, 1u);
  EXPECT_EQ(report->corrupt, 0u);
  EXPECT_GT(report->bytes_read, 0u);
  EXPECT_TRUE(report->quarantined.empty());
}

TEST(ScrubTest, DetectsEverySingleBitFlipBehindRecomputedChecksums) {
  // The acceptance sweep: corruptions whose in-file checksums were all
  // recomputed pass VerifySnapshotImage, yet the scrubber must catch 100%
  // of them via the manifest CRC — and quarantine without disturbing
  // queries against the already-loaded copy.
  TempDir dir("recovery_scrub_bits");
  SeedStore(dir.path());
  Rng rng(5);
  int detected = 0;
  constexpr int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    Database db;
    ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
    // Each trial re-finds the live snapshot: quarantine + re-persist below
    // move the document to a fresh generation file.
    const std::string victim = OnlySnapshotIn(dir.path());
    const std::string pristine = ReadRaw(victim);
    ASSERT_FALSE(pristine.empty());
    const std::string corrupt = CorruptBehindRecomputedChecksums(
        pristine, rng.Next() % (pristine.size() / 2));
    ASSERT_NE(corrupt, pristine);
    // The in-file checksums really are consistent: deep verification of
    // the corrupted image succeeds or fails only on *structural* grounds,
    // shallow (checksum-level) verification must pass.
    ASSERT_TRUE(storage::VerifySnapshotImage(FileBytes::Copy(corrupt),
                                             /*deep=*/false)
                    .ok());
    WriteRaw(victim, corrupt);

    auto report = db.Scrub(ScrubOptions{});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (report->corrupt == 1) ++detected;
    ASSERT_EQ(report->quarantined.size(), 1u);
    EXPECT_NE(report->quarantined[0].find("whole-file checksum"),
              std::string::npos)
        << report->quarantined[0];
    // The document keeps serving from its validated in-memory copy, and
    // results carry the degradation note.
    auto result = db.Query("count(doc(\"bib.xml\")//book)");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->value.at(0).StringValue(), "12");
    EXPECT_TRUE(result->degraded);
    EXPECT_NE(result->degradation.find("quarantined"), std::string::npos)
        << result->degradation;

    // Reset the store for the next trial: put the pristine bytes back and
    // re-commit them under a fresh registration.
    std::filesystem::remove(victim + ".quarantined");
    ASSERT_TRUE(db.Persist("bib.xml").ok());
  }
  EXPECT_EQ(detected, kTrials);
}

TEST(ScrubTest, QuarantinesSnapshotTruncatedOrDeletedAtRest) {
  // A quarantined document heals by being registered again, or by a Persist
  // of the entry it still serves.
  enum class Heal { kRegister, kPersist };
  for (const AtRest damage : {AtRest::kTruncated, AtRest::kDeleted}) {
    for (const SnapshotOpenMode mode :
         {SnapshotOpenMode::kCopy, SnapshotOpenMode::kMap}) {
      for (const Heal heal : {Heal::kRegister, Heal::kPersist}) {
        SCOPED_TRACE(std::string(AtRestName(damage)) +
                     (mode == SnapshotOpenMode::kMap ? ", mmap" : ", copy") +
                     (heal == Heal::kPersist ? ", persist" : ", register"));
        TempDir dir("recovery_at_rest_scrub");
        const std::string victim = SeedThreeDocStore(dir.path());
        Database db;
        ASSERT_TRUE(db.Attach(dir.path(), mode).ok());
        DamageAtRest(victim, damage);
        const uint64_t healthy_bytes =
            std::filesystem::file_size(dir.path() + "/good1.xml-g1.xqpack") +
            std::filesystem::file_size(dir.path() + "/good2.xml-g3.xqpack");
        const uint64_t victim_bytes = damage == AtRest::kTruncated
                                          ? std::filesystem::file_size(victim)
                                          : 0;

        auto report = db.Scrub(ScrubOptions{});
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        EXPECT_EQ(report->files_checked, 3u);
        EXPECT_EQ(report->bytes_read, healthy_bytes + victim_bytes);
        EXPECT_EQ(report->corrupt, 1u);
        ASSERT_EQ(report->quarantined.size(), 1u);
        const std::string& line = report->quarantined[0];
        EXPECT_EQ(line.rfind("victim.xml (victim.xml-g2.xqpack): ", 0), 0u)
            << line;
        EXPECT_NE(line.find(AtRestReason(damage)), std::string::npos) << line;
        EXPECT_EQ(std::filesystem::exists(victim + ".quarantined"),
                  damage == AtRest::kTruncated);

        // The victim keeps serving a validated in-memory copy, flagged,
        // unless its mapping reaches past a truncated file's end; the other
        // documents keep serving unflagged.
        const bool dropped =
            mode == SnapshotOpenMode::kMap && damage == AtRest::kTruncated;
        auto victim_result = db.Query("count(doc(\"victim.xml\")//book)");
        if (dropped) {
          EXPECT_FALSE(victim_result.ok());
          EXPECT_FALSE(db.Contains("victim.xml"));
        } else {
          ASSERT_TRUE(victim_result.ok())
              << victim_result.status().ToString();
          EXPECT_EQ(victim_result->value.at(0).StringValue(), "12");
          EXPECT_TRUE(victim_result->degraded);
        }
        auto good_result = db.Query("count(doc(\"good2.xml\")//book)");
        ASSERT_TRUE(good_result.ok()) << good_result.status().ToString();
        EXPECT_EQ(good_result->value.at(0).StringValue(), "9");
        EXPECT_FALSE(good_result->degraded);

        // The quarantine is journaled: the next pass checks only the
        // survivors.
        auto second = db.Scrub(ScrubOptions{});
        ASSERT_TRUE(second.ok()) << second.status().ToString();
        EXPECT_EQ(second->files_checked, 2u);
        EXPECT_EQ(second->bytes_read, healthy_bytes);
        EXPECT_EQ(second->corrupt, 0u);

        // Either heal replaces what the note describes, and the note goes. A
        // dropped document is registered before it can be persisted.
        if (heal == Heal::kRegister || dropped) {
          ASSERT_TRUE(db.RegisterDocument("victim.xml", MakeBib(12)).ok());
        }
        if (heal == Heal::kPersist) {
          ASSERT_TRUE(db.Persist("victim.xml").ok());
        }
        auto fresh = db.Query("count(doc(\"victim.xml\")//book)");
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        EXPECT_EQ(fresh->value.at(0).StringValue(), "12");
        EXPECT_FALSE(fresh->degraded) << fresh->degradation;
        auto healed = db.Scrub(ScrubOptions{});
        ASSERT_TRUE(healed.ok()) << healed.status().ToString();
        EXPECT_EQ(healed->files_checked, heal == Heal::kPersist ? 3u : 2u);
        EXPECT_EQ(healed->corrupt, 0u);
      }
    }
  }
}

TEST(ScrubTest, MappedDocumentNeverCrashesOnCorruption) {
  TempDir dir("recovery_scrub_map");
  SeedStore(dir.path());
  Database db;
  ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kMap).ok());
  const std::string victim = OnlySnapshotIn(dir.path());
  std::string bytes = ReadRaw(victim);
  bytes[bytes.size() - 1] ^= 0x01;  // last payload byte, plain flip
  WriteRaw(victim, bytes);

  auto report = db.Scrub(ScrubOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->corrupt, 1u);
  ASSERT_EQ(report->notes.size(), 1u);
  // Whatever the fallback decided (revalidated copy vs drop), queries must
  // not crash: they either serve flagged results or report the document
  // missing.
  auto result = db.Query("count(doc(\"bib.xml\")//book)");
  if (db.Contains("bib.xml")) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->degraded);
  } else {
    EXPECT_FALSE(result.ok());
  }
}

TEST(ScrubTest, BackgroundScrubberQuarantinesWhileServing) {
  TempDir dir("recovery_scrub_bg");
  SeedStore(dir.path());
  Database db;
  ASSERT_TRUE(db.Attach(dir.path(), SnapshotOpenMode::kCopy).ok());
  ASSERT_TRUE(db.StartScrubber(/*interval_ms=*/5).ok());
  EXPECT_TRUE(db.scrubber_running());
  EXPECT_FALSE(db.StartScrubber(5).ok());  // already running

  // Corrupt the snapshot under the running scrubber; queries keep flowing
  // the whole time (the loaded copy is what serves them).
  const std::string victim = OnlySnapshotIn(dir.path());
  std::string bytes = ReadRaw(victim);
  bytes[bytes.size() / 3] ^= 0x20;
  WriteRaw(victim, bytes);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool quarantined = false;
  while (std::chrono::steady_clock::now() < deadline) {
    auto result = db.Query("count(doc(\"bib.xml\")//book)");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->value.at(0).StringValue(), "12");
    if (std::filesystem::exists(victim + ".quarantined")) {
      quarantined = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  db.StopScrubber();
  EXPECT_FALSE(db.scrubber_running());
  EXPECT_TRUE(quarantined) << "scrubber never quarantined the corruption";
  EXPECT_GE(db.scrub_cycles(), 1u);
  auto result = db.Query("count(doc(\"bib.xml\")//book)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degraded);
  EXPECT_NE(result->degradation.find("quarantined"), std::string::npos);

  // Without a store there is nothing to scrub.
  Database unattached;
  EXPECT_FALSE(unattached.StartScrubber(5).ok());
  unattached.StopScrubber();  // no-op
}

}  // namespace
}  // namespace xmlq
