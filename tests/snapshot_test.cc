// xqpack snapshot store: round-trip fidelity, corruption rejection
// (truncation, trailing garbage, per-section CRC, header damage), a seeded
// byte-level fuzz over the on-disk image, and the fault-injection sites.
//
// All temp files use relative paths, so they land under the build tree
// (the ctest working directory).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/base/crc32.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/base/file_io.h"
#include "xmlq/base/random.h"
#include "xmlq/base/strings.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/datagen/random_tree.h"
#include "xmlq/storage/manifest.h"
#include "xmlq/storage/snapshot.h"
#include "xmlq/xml/serializer.h"

namespace xmlq {
namespace {

using api::Database;
using api::QueryOptions;
using storage::OpenSnapshot;
using storage::OpenSnapshotFromBytes;
using storage::SnapshotOpenMode;
using storage::VerifySnapshotImage;

/// Removes `path` on scope exit so failed assertions don't leak temp files
/// into later runs.
class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void LoadCorpusDocs(Database* db) {
  datagen::BibOptions bib;
  bib.num_books = 40;
  ASSERT_TRUE(
      db->RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  datagen::AuctionOptions auction;
  auction.scale = 0.01;
  ASSERT_TRUE(
      db->RegisterDocument("auction.xml",
                           datagen::GenerateAuctionSite(auction))
          .ok());
}

/// Queries spanning both documents and every front end: navigation,
/// predicates, FLWOR with construction, aggregation.
std::vector<std::string> QueryCorpus() {
  return {
      "doc(\"bib.xml\")//book/title",
      "count(doc(\"bib.xml\")//author)",
      "for $b in doc(\"bib.xml\")//book where $b/price > 60 "
      "order by $b/price descending "
      "return <pick year=\"{$b/@year}\">{$b/title}</pick>",
      "doc(\"auction.xml\")//person/name",
      "avg(doc(\"auction.xml\")//closed_auction/price)",
      "count(for $i in doc(\"auction.xml\")//item "
      "where $i/payment = 'Cash' return $i)",
  };
}

/// Serialized results of the whole corpus — the byte-identical fidelity
/// oracle for the round-trip property.
std::string RunCorpus(Database& db) {
  std::string out;
  for (const std::string& query : QueryCorpus()) {
    auto result = db.Query(query);
    EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    if (!result.ok()) continue;
    out += Database::ToXml(*result, /*indent=*/true);
    out += '\n';
  }
  auto path = db.QueryPath("//person[address][phone]/name", "auction.xml");
  EXPECT_TRUE(path.ok()) << path.status().ToString();
  if (path.ok()) out += Database::ToXml(*path);
  return out;
}

std::string ReadFileOrDie(const std::string& path) {
  auto bytes = FileBytes::ReadWhole(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return std::string(bytes->data(), bytes->size());
}

void WriteFileOrDie(const std::string& path, std::string_view data) {
  ASSERT_TRUE(WriteFileAtomic(path, data).ok());
}

TEST(SnapshotTest, RoundTripPreservesQueryResults) {
  Database db;
  LoadCorpusDocs(&db);
  const std::string reference = RunCorpus(db);
  ASSERT_FALSE(reference.empty());
  const std::string bib_xml =
      xml::Serialize(*db.Get("bib.xml")->dom, db.Get("bib.xml")->dom->root(),
                     {});

  TempFile bib_file("rt_bib.xqpack");
  TempFile auction_file("rt_auction.xqpack");
  ASSERT_TRUE(db.Save("bib.xml", bib_file.path()).ok());
  ASSERT_TRUE(db.Save("auction.xml", auction_file.path()).ok());

  for (const SnapshotOpenMode mode :
       {SnapshotOpenMode::kMap, SnapshotOpenMode::kCopy}) {
    SCOPED_TRACE(mode == SnapshotOpenMode::kMap ? "mmap" : "copy");
    Database reopened;
    ASSERT_TRUE(reopened.Open("bib.xml", bib_file.path(), mode).ok());
    ASSERT_TRUE(reopened.Open("auction.xml", auction_file.path(), mode).ok());

    // Byte-identical query results and document serialization.
    EXPECT_EQ(RunCorpus(reopened), reference);
    EXPECT_EQ(xml::Serialize(*reopened.Get("bib.xml")->dom,
                             reopened.Get("bib.xml")->dom->root(), {}),
              bib_xml);

    // Both open paths borrow the succinct streams (BP words, kinds, names,
    // content) from the backing bytes (mapping or aligned heap copy); only
    // the directories and the has-content bitmap are built on the heap. The
    // region index and the value index are built at open.
    auto report = reopened.Report("auction.xml");
    ASSERT_TRUE(report.ok());
    const auto built = db.Report("auction.xml");
    ASSERT_TRUE(built.ok());
    EXPECT_TRUE(report->from_snapshot);
    EXPECT_EQ(report->mapped, mode == SnapshotOpenMode::kMap);
    EXPECT_GT(report->snapshot_file_bytes, 0u);
    EXPECT_GT(report->succinct_heap_bytes, 0u);
    EXPECT_LT(report->succinct_heap_bytes,
              report->succinct_structure_bytes / 2);
    EXPECT_EQ(report->region_index_heap_bytes, report->region_index_bytes);
    EXPECT_GT(report->value_index_heap_bytes, 0u);
    // The same structures as a load, byte for byte.
    EXPECT_EQ(report->dom_bytes, built->dom_bytes);
    EXPECT_EQ(report->succinct_structure_bytes,
              built->succinct_structure_bytes);
    EXPECT_EQ(report->succinct_content_bytes, built->succinct_content_bytes);
    EXPECT_EQ(report->region_index_bytes, built->region_index_bytes);
    EXPECT_EQ(report->node_count, built->node_count);
  }
}

TEST(SnapshotTest, RoundTripTinyAndTextHeavyDocuments) {
  const char* kDocs[] = {
      "<a/>",
      "<r a=\"1\" b=\"two\"><x>t</x><x/><y z=\"3\">mixed <i>in</i> "
      "tail</y></r>",
      "<deep><deep><deep><deep>leaf text</deep></deep></deep></deep>",
  };
  int index = 0;
  for (const char* text : kDocs) {
    SCOPED_TRACE(text);
    Database db;
    ASSERT_TRUE(db.LoadDocument("d.xml", text).ok());
    const std::string before =
        xml::Serialize(*db.Get("d.xml")->dom, db.Get("d.xml")->dom->root(), {});
    TempFile file("rt_tiny_" + std::to_string(index++) + ".xqpack");
    ASSERT_TRUE(db.Save("d.xml", file.path()).ok());
    for (const SnapshotOpenMode mode :
         {SnapshotOpenMode::kMap, SnapshotOpenMode::kCopy}) {
      Database reopened;
      ASSERT_TRUE(reopened.Open("d.xml", file.path(), mode).ok());
      EXPECT_EQ(xml::Serialize(*reopened.Get("d.xml")->dom,
                               reopened.Get("d.xml")->dom->root(), {}),
                before);
    }
  }
}

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Every structure the open path derives equals the one LoadDocument built.
void ExpectSameComponents(const exec::IndexedDocument& loaded,
                          const storage::OpenedSnapshot& opened) {
  const xml::Document& want = *loaded.dom;
  const xml::Document& got = *opened.dom;
  ASSERT_EQ(got.NodeCount(), want.NodeCount());
  EXPECT_EQ(got.ElementCount(), want.ElementCount());
  EXPECT_EQ(got.TextBufferView(), want.TextBufferView());
  for (xml::NodeId i = 0; i < want.NodeCount(); ++i) {
    if (got.Kind(i) != want.Kind(i) || got.Name(i) != want.Name(i) ||
        got.Parent(i) != want.Parent(i) ||
        got.FirstChild(i) != want.FirstChild(i) ||
        got.NextSibling(i) != want.NextSibling(i) ||
        got.FirstAttr(i) != want.FirstAttr(i) || got.Text(i) != want.Text(i)) {
      ADD_FAILURE() << "DOM node " << i << " differs";
      return;
    }
  }

  const storage::RegionIndex& regions = *opened.regions;
  EXPECT_TRUE(SameBytes(regions.EndSpan(), loaded.regions->EndSpan()));
  EXPECT_TRUE(SameBytes(regions.LevelSpan(), loaded.regions->LevelSpan()));
  for (const bool attribute : {false, true}) {
    EXPECT_TRUE(SameBytes(regions.PostingSpan(attribute),
                          loaded.regions->PostingSpan(attribute)));
    for (xml::NameId name = 0; name < want.pool().size(); ++name) {
      EXPECT_TRUE(SameBytes(regions.Postings(name, attribute),
                            loaded.regions->Postings(name, attribute)))
          << want.pool().NameOf(name);
    }
  }

  const storage::SuccinctDocument& sw = *loaded.succinct;
  const storage::SuccinctDocument& sg = *opened.succinct;
  ASSERT_EQ(sg.NodeCount(), sw.NodeCount());
  for (uint32_t r = 0; r < sw.NodeCount(); ++r) {
    if (sg.Kind(r) != sw.Kind(r) || sg.Label(r) != sw.Label(r)) {
      ADD_FAILURE() << "succinct stream rank " << r << " differs";
      return;
    }
  }
  EXPECT_TRUE(SameBytes(sg.bp().bits().WordSpan(), sw.bp().bits().WordSpan()));
  EXPECT_TRUE(SameBytes(sg.bp().bits().SuperRankSpan(),
                        sw.bp().bits().SuperRankSpan()));
  EXPECT_TRUE(SameBytes(sg.bp().WordDirSpan(), sw.bp().WordDirSpan()));
  EXPECT_TRUE(SameBytes(sg.bp().SuperDirSpan(), sw.bp().SuperDirSpan()));
  EXPECT_TRUE(
      SameBytes(sg.has_content().WordSpan(), sw.has_content().WordSpan()));
  EXPECT_TRUE(SameBytes(sg.has_content().SuperRankSpan(),
                        sw.has_content().SuperRankSpan()));
  EXPECT_EQ(sg.has_content().OneCount(), sw.has_content().OneCount());
  EXPECT_TRUE(SameBytes(sg.content().OffsetSpan(), sw.content().OffsetSpan()));
  EXPECT_EQ(sg.content().BufferView(), sw.content().BufferView());

  const storage::ValueIndex& values = *opened.values;
  EXPECT_EQ(values.size(), loaded.values->size());
  for (const bool attribute : {false, true}) {
    const std::vector<xml::NodeId> nodes = values.EntryNodes(attribute);
    EXPECT_EQ(nodes, loaded.values->EntryNodes(attribute));
    EXPECT_TRUE(SameBytes(values.OffsetSpan(attribute),
                          loaded.values->OffsetSpan(attribute)));
    EXPECT_TRUE(SameBytes(values.NumericSpan(attribute),
                          loaded.values->NumericSpan(attribute)));
    EXPECT_TRUE(SameBytes(values.NumericOffsetSpan(attribute),
                          loaded.values->NumericOffsetSpan(attribute)));
    for (const xml::NodeId node : nodes) {
      const auto value =
          storage::ValueIndex::IndexedValue(got, node, attribute);
      ASSERT_TRUE(value.has_value()) << node;
      EXPECT_EQ(values.Lookup(got.Name(node), *value, attribute),
                loaded.values->Lookup(got.Name(node), *value, attribute));
    }
  }
}

TEST(SnapshotTest, OpenRebuildsWhatLoadBuilds) {
  struct Input {
    std::string what;
    std::string xml;
  };
  datagen::AuctionOptions auction;
  auction.scale = 0.02;
  datagen::BibOptions bib;
  bib.num_books = 30;
  datagen::RandomTreeOptions random;
  random.num_elements = 400;
  random.seed = 11;
  const auto serialize = [](const std::unique_ptr<xml::Document>& doc) {
    return xml::Serialize(*doc, doc->root(), {});
  };
  std::string chain;
  for (int i = 0; i < 100000; ++i) chain += "<d>";
  for (int i = 0; i < 100000; ++i) chain += "</d>";
  const std::vector<Input> inputs = {
      {"auction", serialize(datagen::GenerateAuctionSite(auction))},
      {"bibliography", serialize(datagen::GenerateBibliography(bib))},
      {"random tree", serialize(datagen::GenerateRandomTree(random))},
      {"comments and PIs",
       "<?xml version=\"1.0\"?><!-- lead --><?style sheet?>"
       "<r a=\"1\"><!-- c --><x>1</x><?p q?><y b=\"2\" c=\"3\">t<z/>u</y>"
       "<x>nan</x><x>-2.5</x></r><!-- tail -->"},
      {"attribute-only element", "<r><e a=\"1\" b=\"two\"/></r>"},
      {"one element", "<a/>"},
      {"100k-deep chain", chain},
  };
  xml::ParseOptions options;
  options.keep_comments = true;
  options.keep_processing_instructions = true;
  int index = 0;
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.what);
    Database db;
    ASSERT_TRUE(db.LoadDocument("d.xml", input.xml, options).ok());
    const exec::IndexedDocument& loaded = *db.Get("d.xml");
    // Storing the text once relies on the DOM's text buffer and the
    // content store holding the same bytes.
    ASSERT_EQ(loaded.dom->TextBufferView(),
              loaded.succinct->content().BufferView());
    TempFile file("rebuild_" + std::to_string(index++) + ".xqpack");
    ASSERT_TRUE(db.Save("d.xml", file.path()).ok());
    for (const SnapshotOpenMode mode :
         {SnapshotOpenMode::kMap, SnapshotOpenMode::kCopy}) {
      SCOPED_TRACE(mode == SnapshotOpenMode::kMap ? "mmap" : "copy");
      auto opened = OpenSnapshot(file.path(), mode);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      ExpectSameComponents(loaded, *opened);
    }
  }

  // A bare document node, the smallest document there is.
  Database db;
  ASSERT_TRUE(
      db.RegisterDocument("empty.xml", std::make_unique<xml::Document>())
          .ok());
  TempFile file("rebuild_empty.xqpack");
  ASSERT_TRUE(db.Save("empty.xml", file.path()).ok());
  auto opened = OpenSnapshot(file.path(), SnapshotOpenMode::kCopy);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectSameComponents(*db.Get("empty.xml"), *opened);
}

TEST(SnapshotTest, WriteInfoDescribesEverySection) {
  Database db;
  datagen::BibOptions bib;
  bib.num_books = 10;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  TempFile file("info.xqpack");
  auto info = db.Save("bib.xml", file.path());
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->sections.size(), storage::kSnapshotSectionCount);
  EXPECT_EQ(info->file_size, ReadFileOrDie(file.path()).size());
  uint64_t prev_end = 0;
  for (size_t i = 0; i < info->sections.size(); ++i) {
    const auto& section = info->sections[i];
    EXPECT_EQ(section.id, i + 1);
    EXPECT_STRNE(section.name, "?");
    EXPECT_EQ(section.offset % 64, 0u) << section.name;
    EXPECT_GE(section.offset, prev_end) << section.name;
    prev_end = section.offset + section.size;
  }
  EXPECT_LE(prev_end, info->file_size);
}

TEST(SnapshotTest, SaveUnknownDocumentAndOpenMissingFile) {
  Database db;
  EXPECT_EQ(db.Save("nope.xml", "unused.xqpack").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.Open("x", "does_not_exist.xqpack").code(),
            StatusCode::kNotFound);
}

TEST(SnapshotTest, TruncatedFilesRejectedWithPosition) {
  Database db;
  datagen::BibOptions bib;
  bib.num_books = 8;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  TempFile file("trunc_src.xqpack");
  ASSERT_TRUE(db.Save("bib.xml", file.path()).ok());
  const std::string image = ReadFileOrDie(file.path());

  TempFile cut("trunc_cut.xqpack");
  for (const size_t keep :
       {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{100},
        size_t{1280}, image.size() / 2, image.size() - 1}) {
    SCOPED_TRACE(keep);
    WriteFileOrDie(cut.path(), std::string_view(image).substr(0, keep));
    for (const SnapshotOpenMode mode :
         {SnapshotOpenMode::kMap, SnapshotOpenMode::kCopy}) {
      auto opened = OpenSnapshot(cut.path(), mode);
      ASSERT_FALSE(opened.ok());
      EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
      EXPECT_NE(opened.status().message().find("xqpack"), std::string::npos);
      EXPECT_NE(opened.status().message().find("offset"), std::string::npos)
          << opened.status().ToString();
    }
  }
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  Database db;
  datagen::BibOptions bib;
  bib.num_books = 8;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  TempFile file("garbage.xqpack");
  ASSERT_TRUE(db.Save("bib.xml", file.path()).ok());
  std::string image = ReadFileOrDie(file.path());
  image += "extra bytes after the last section";
  WriteFileOrDie(file.path(), image);
  auto opened = OpenSnapshot(file.path(), SnapshotOpenMode::kCopy);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  EXPECT_NE(opened.status().message().find("truncated or trailing garbage"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(SnapshotTest, CorruptHeaderRejected) {
  Database db;
  datagen::BibOptions bib;
  bib.num_books = 8;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  TempFile file("header_src.xqpack");
  ASSERT_TRUE(db.Save("bib.xml", file.path()).ok());
  const std::string image = ReadFileOrDie(file.path());

  // magic, version, section_count, file_size, table_crc, header_crc,
  // reserved bytes, and a section-table entry.
  const size_t kOffsets[] = {0, 7, 8, 12, 16, 24, 28, 40, 64, 96, 1248};
  TempFile bad("header_bad.xqpack");
  for (const size_t offset : kOffsets) {
    SCOPED_TRACE(offset);
    std::string mutated = image;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x5a);
    WriteFileOrDie(bad.path(), mutated);
    auto opened = OpenSnapshot(bad.path(), SnapshotOpenMode::kCopy);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
    EXPECT_FALSE(opened.status().message().empty());
  }
}

TEST(SnapshotTest, CorruptSectionPayloadNamesTheSection) {
  Database db;
  datagen::BibOptions bib;
  bib.num_books = 8;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  TempFile file("section_src.xqpack");
  auto info = db.Save("bib.xml", file.path());
  ASSERT_TRUE(info.ok());
  const std::string image = ReadFileOrDie(file.path());

  TempFile bad("section_bad.xqpack");
  for (const auto& section : info->sections) {
    if (section.size == 0) continue;
    SCOPED_TRACE(section.name);
    std::string mutated = image;
    const size_t target = section.offset + section.size / 2;
    mutated[target] = static_cast<char>(mutated[target] ^ 0xff);
    WriteFileOrDie(bad.path(), mutated);
    auto opened = OpenSnapshot(bad.path(), SnapshotOpenMode::kCopy);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
    EXPECT_NE(opened.status().message().find(section.name), std::string::npos)
        << opened.status().ToString();
    EXPECT_NE(opened.status().message().find("offset"), std::string::npos);
  }
}

/// Recomputes every checksum (section CRCs from the section table, then the
/// table CRC, then the header CRC) so payload mutations reach the semantic
/// validators instead of being stopped at the CRC wall.
void FixChecksums(std::string* image) {
  using storage::SnapshotHeader;
  using storage::SnapshotSection;
  if (image->size() < sizeof(SnapshotHeader)) return;
  SnapshotHeader header;
  std::memcpy(&header, image->data(), sizeof(header));
  const size_t table_bytes =
      size_t{header.section_count} * sizeof(SnapshotSection);
  if (header.section_count > 1024 ||
      image->size() < sizeof(header) + table_bytes) {
    return;
  }
  std::vector<SnapshotSection> table(header.section_count);
  std::memcpy(table.data(), image->data() + sizeof(header), table_bytes);
  for (SnapshotSection& section : table) {
    if (section.offset > image->size() ||
        section.size > image->size() - section.offset) {
      continue;
    }
    section.crc = Crc32(image->data() + section.offset, section.size);
  }
  std::memcpy(image->data() + sizeof(header), table.data(), table_bytes);
  header.table_crc = Crc32(image->data() + sizeof(header), table_bytes);
  SnapshotHeader crc_input = header;
  crc_input.header_crc = 0;
  header.header_crc = Crc32(&crc_input, sizeof(crc_input));
  std::memcpy(image->data(), &header, sizeof(header));
}

/// A surviving mutant must behave like a document: walk it the way a query
/// would, so any out-of-bounds reference trips ASan rather than lurking.
void ExerciseOpened(const storage::OpenedSnapshot& snapshot) {
  EXPECT_TRUE(snapshot.dom->IsPreorder());
  const std::string out =
      xml::Serialize(*snapshot.dom, snapshot.dom->root(), {});
  (void)out;
  size_t checksum = snapshot.succinct->NodeCount();
  for (const bool attribute : {false, true}) {
    for (const xml::NodeId id : snapshot.regions->PostingSpan(attribute)) {
      const storage::Region region = snapshot.regions->RegionOf(id);
      checksum += region.start + region.end + region.level;
    }
  }
  (void)checksum;
}

void FuzzOpen(std::string image) {
  FileBytes bytes = FileBytes::Copy(image);
  auto opened = OpenSnapshotFromBytes(std::move(bytes));
  if (opened.ok()) {
    ExerciseOpened(*opened);
  } else {
    EXPECT_FALSE(opened.status().message().empty());
  }
}

TEST(SnapshotTest, FuzzRawImageMutations) {
  Database db;
  datagen::BibOptions bib;
  bib.num_books = 6;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  TempFile file("fuzz_raw.xqpack");
  ASSERT_TRUE(db.Save("bib.xml", file.path()).ok());
  const std::string pristine = ReadFileOrDie(file.path());

  Rng rng(20260805);
  for (int i = 0; i < 900; ++i) {
    std::string image = pristine;
    const int mutations = 1 + static_cast<int>(rng.Below(4));
    for (int m = 0; m < mutations && !image.empty(); ++m) {
      switch (rng.Below(5)) {
        case 0: {  // flip one bit
          const size_t pos = rng.Below(image.size());
          image[pos] = static_cast<char>(image[pos] ^ (1 << rng.Below(8)));
          break;
        }
        case 1:  // truncate
          image.resize(rng.Below(image.size()));
          break;
        case 2: {  // overwrite a span with a random byte
          const size_t begin = rng.Below(image.size());
          const size_t len =
              std::min(image.size() - begin, size_t{1} + rng.Below(64));
          std::memset(image.data() + begin,
                      static_cast<int>(rng.Below(256)), len);
          break;
        }
        case 3: {  // delete a span
          const size_t begin = rng.Below(image.size());
          image.erase(begin, 1 + rng.Below(128));
          break;
        }
        default: {  // duplicate a span (grows the file)
          const size_t begin = rng.Below(image.size());
          const size_t len =
              std::min(image.size() - begin, size_t{1} + rng.Below(64));
          image.insert(rng.Below(image.size() + 1),
                       image.substr(begin, len));
          break;
        }
      }
    }
    FuzzOpen(std::move(image));
    if (HasFatalFailure()) FAIL() << "iteration " << i;
  }
}

TEST(SnapshotTest, FuzzHeaderAndTableMutations) {
  Database db;
  datagen::BibOptions bib;
  bib.num_books = 6;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  TempFile file("fuzz_table.xqpack");
  ASSERT_TRUE(db.Save("bib.xml", file.path()).ok());
  const std::string pristine = ReadFileOrDie(file.path());
  const size_t kTableEnd =
      sizeof(storage::SnapshotHeader) +
      storage::kSnapshotSectionCount * sizeof(storage::SnapshotSection);

  Rng rng(424242);
  for (int i = 0; i < 600; ++i) {
    std::string image = pristine;
    // Mutate only header/table bytes, then re-seal the header checksums for
    // half the runs so table-field validation (not just the CRC) gets hit.
    const int mutations = 1 + static_cast<int>(rng.Below(3));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Below(kTableEnd);
      switch (rng.Below(3)) {
        case 0:
          image[pos] = static_cast<char>(image[pos] ^ (1 << rng.Below(8)));
          break;
        case 1:
          image[pos] = static_cast<char>(rng.Below(256));
          break;
        default:
          image[pos] = static_cast<char>(0xff);
          break;
      }
    }
    if (rng.Below(2) == 0) FixChecksums(&image);
    FuzzOpen(std::move(image));
    if (HasFatalFailure()) FAIL() << "iteration " << i;
  }
}

TEST(SnapshotTest, FuzzPayloadMutationsBehindValidChecksums) {
  // A bibliography, and a document with comments, PIs and numeric runs in
  // both value families.
  Database db;
  datagen::BibOptions bib;
  bib.num_books = 6;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  xml::ParseOptions options;
  options.keep_comments = true;
  options.keep_processing_instructions = true;
  ASSERT_TRUE(db.LoadDocument("mixed.xml",
                              "<?xml version=\"1.0\"?><!-- head --><?style s?>"
                              "<r><!-- c --><n v=\"1.5\">10</n><n v=\"x\">-3"
                              "</n><?pi body?><n>7e2</n><n>nan</n><m w=\"2\">"
                              "abc<i/></m><m w=\"-1\">4</m></r><!-- tail -->",
                              options)
                  .ok());
  const size_t kPayloadStart =
      ((sizeof(storage::SnapshotHeader) +
        storage::kSnapshotSectionCount * sizeof(storage::SnapshotSection)) +
       63) /
      64 * 64;
  for (const char* name : {"bib.xml", "mixed.xml"}) {
    SCOPED_TRACE(name);
    TempFile file("fuzz_payload.xqpack");
    ASSERT_TRUE(db.Save(name, file.path()).ok());
    const std::string pristine = ReadFileOrDie(file.path());
    ASSERT_LT(kPayloadStart, pristine.size());

    Rng rng(7);
    for (int i = 0; i < 600; ++i) {
      std::string image = pristine;
      // Overwrite-only mutations inside payload bytes, then recompute every
      // checksum: the semantic validators are the only remaining line of
      // defence, and they must reject or yield a safely walkable document.
      const int mutations = 1 + static_cast<int>(rng.Below(4));
      for (int m = 0; m < mutations; ++m) {
        const size_t pos =
            kPayloadStart + rng.Below(image.size() - kPayloadStart);
        switch (rng.Below(4)) {
          case 0:
            image[pos] = static_cast<char>(image[pos] ^ (1 << rng.Below(8)));
            break;
          case 1:
            image[pos] = static_cast<char>(rng.Below(256));
            break;
          case 2: {  // zero a span
            const size_t len =
                std::min(image.size() - pos, size_t{1} + rng.Below(48));
            std::memset(image.data() + pos, 0, len);
            break;
          }
          default: {  // saturate a span
            const size_t len =
                std::min(image.size() - pos, size_t{1} + rng.Below(48));
            std::memset(image.data() + pos, 0xff, len);
            break;
          }
        }
      }
      FixChecksums(&image);
      FuzzOpen(std::move(image));
      if (HasFatalFailure()) FAIL() << "iteration " << i;
    }
  }
}

/// Replaces the payload of section `id` and lays the image out again (64-byte
/// aligned payloads, new file size, fresh checksums), the way the writer
/// would have written that payload.
std::string ReplaceSection(const std::string& image, storage::SectionId id,
                           std::string_view payload) {
  using storage::SnapshotHeader;
  using storage::SnapshotSection;
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<SnapshotSection> table(header.section_count);
  std::memcpy(table.data(), image.data() + sizeof(header),
              table.size() * sizeof(SnapshotSection));
  std::string out(sizeof(header) + table.size() * sizeof(SnapshotSection),
                  '\0');
  for (SnapshotSection& section : table) {
    const std::string_view bytes =
        section.id == static_cast<uint32_t>(id)
            ? payload
            : std::string_view(image).substr(section.offset, section.size);
    out.resize((out.size() + 63) / 64 * 64, '\0');
    section.offset = out.size();
    section.size = bytes.size();
    out.append(bytes);
  }
  header.file_size = out.size();
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + sizeof(header), table.data(),
              table.size() * sizeof(SnapshotSection));
  FixChecksums(&out);
  return out;
}

std::string_view SectionBytes(const std::string& image,
                              const storage::SnapshotWriteInfo& info,
                              storage::SectionId id) {
  for (const auto& section : info.sections) {
    if (section.id == static_cast<uint32_t>(id)) {
      return std::string_view(image).substr(section.offset, section.size);
    }
  }
  return {};
}

template <typename T>
std::string_view AsBytes(const std::vector<T>& v) {
  return std::string_view(reinterpret_cast<const char*>(v.data()),
                          v.size() * sizeof(T));
}

template <typename T>
std::vector<T> SectionArray(const std::string& image,
                            const storage::SnapshotWriteInfo& info,
                            storage::SectionId id) {
  const std::string_view bytes = SectionBytes(image, info, id);
  std::vector<T> out(bytes.size() / sizeof(T));
  std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
  return out;
}

/// A document whose `p` data elements hold "nan" one time in three.
std::string NanDocument() {
  std::string text = "<r>";
  for (int i = 0; i < 60; ++i) {
    text += "<p>" + (i % 3 == 0 ? std::string("nan")
                                : std::to_string((i * 37) % 101)) +
            "</p>";
  }
  return text + "</r>";
}

TEST(SnapshotTest, RefusesVersionTwoImages) {
  Database db;
  ASSERT_TRUE(db.LoadDocument("nan.xml", NanDocument()).ok());
  TempFile file("v2_src.xqpack");
  auto info = db.Save("nan.xml", file.path());
  ASSERT_TRUE(info.ok());
  // A version-2 header over otherwise valid bytes, every checksum sealed.
  std::string old = ReadFileOrDie(file.path());
  storage::SnapshotHeader header;
  std::memcpy(&header, old.data(), sizeof(header));
  ASSERT_EQ(header.version, 3u);
  header.version = 2;
  std::memcpy(old.data(), &header, sizeof(header));
  FixChecksums(&old);

  const std::string want = "unsupported version 2 (expected 3)";
  auto opened =
      OpenSnapshotFromBytes(FileBytes::Copy(old));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  EXPECT_NE(opened.status().message().find("header at offset 0: " + want),
            std::string::npos)
      << opened.status().ToString();
  for (const bool deep : {false, true}) {
    const Status verified = VerifySnapshotImage(FileBytes::Copy(old), deep);
    EXPECT_NE(verified.message().find(want), std::string::npos)
        << verified.ToString();
  }

  // A store a version-2 build journaled: Attach quarantines the snapshot
  // with the version error and keeps serving the rest.
  const std::string dir = "v2_store";
  std::filesystem::remove_all(dir);
  {
    Database store;
    ASSERT_TRUE(store.Attach(dir, SnapshotOpenMode::kCopy).ok());
    ASSERT_TRUE(store.LoadDocument("nan.xml", NanDocument()).ok());
    ASSERT_TRUE(store.LoadDocument("old.xml", NanDocument()).ok());
    ASSERT_TRUE(store.Persist("nan.xml").ok());
  }
  {
    WriteFileOrDie(dir + "/old.xqpack", old);
    auto manifest = storage::Manifest::Open(dir);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    storage::ManifestRecord record;
    record.op = storage::ManifestOp::kRegister;
    record.generation = manifest->NextGeneration();
    record.name = "old.xml";
    record.file = "old.xqpack";
    record.snapshot_size = old.size();
    record.snapshot_crc = Crc32(old.data(), old.size());
    ASSERT_TRUE(manifest->Append(record).ok());
  }
  Database attached;
  auto report = attached.Attach(dir, SnapshotOpenMode::kMap);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->quarantined.size(), 1u);
  EXPECT_NE(report->quarantined[0].find("old.xml"), std::string::npos);
  EXPECT_NE(report->quarantined[0].find(want), std::string::npos)
      << report->quarantined[0];
  EXPECT_TRUE(attached.Contains("nan.xml"));
  EXPECT_FALSE(attached.Contains("old.xml"));
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, CorruptValueRunsRejected) {
  Database db;
  ASSERT_TRUE(db.LoadDocument("nan.xml", NanDocument()).ok());
  TempFile file("runs_src.xqpack");
  auto info = db.Save("nan.xml", file.path());
  ASSERT_TRUE(info.ok());
  const std::string image = ReadFileOrDie(file.path());
  const std::string_view section = SectionBytes(
      image, *info, storage::SectionId::kValueElementEntries);
  ASSERT_GE(section.size(), 2 * sizeof(xml::NodeId));
  std::vector<xml::NodeId> entries(section.size() / sizeof(xml::NodeId));
  std::memcpy(entries.data(), section.data(), section.size());

  const auto open_with = [&](const std::vector<xml::NodeId>& mutated) {
    return OpenSnapshotFromBytes(FileBytes::Copy(ReplaceSection(
        image, storage::SectionId::kValueElementEntries, AsBytes(mutated))));
  };
  // A text run out of value order: EqualRun's binary search would miss rows.
  auto swapped = entries;
  std::swap(swapped.front(), swapped.back());
  auto opened = open_with(swapped);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("value_element_entries"),
            std::string::npos);
  EXPECT_NE(opened.status().message().find("out of order"), std::string::npos)
      << opened.status().ToString();
  // An entry naming a node of another name (the root element `r`).
  auto renamed = entries;
  renamed[1] = db.Get("nan.xml")->dom->RootElement();
  opened = open_with(renamed);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("another name or kind"),
            std::string::npos)
      << opened.status().ToString();

  // A numeric run holding NaN, or out of value order: NumericRun's binary
  // search would miss rows.
  using storage::ValueIndex;
  const std::string_view numeric_section =
      SectionBytes(image, *info, storage::SectionId::kValueElementNumeric);
  ASSERT_GE(numeric_section.size(), 2 * sizeof(ValueIndex::NumericEntry));
  std::vector<ValueIndex::NumericEntry> numeric(
      numeric_section.size() / sizeof(ValueIndex::NumericEntry));
  std::memcpy(numeric.data(), numeric_section.data(), numeric_section.size());
  ASSERT_LT(numeric.front().value, numeric.back().value);
  auto with_nan = numeric;
  with_nan[1].value = std::nan("");
  auto unsorted = numeric;
  std::swap(unsorted.front(), unsorted.back());
  for (const auto& mutated : {with_nan, unsorted}) {
    std::string bad = image;
    std::memcpy(bad.data() + (numeric_section.data() - image.data()),
                mutated.data(), numeric_section.size());
    FixChecksums(&bad);
    opened = OpenSnapshotFromBytes(FileBytes::Copy(bad));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
    EXPECT_NE(opened.status().message().find("value_element_numeric at offset"),
              std::string::npos)
        << opened.status().ToString();
    EXPECT_NE(opened.status().message().find("NaN or out of order"),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST(SnapshotTest, CorruptPrimarySectionsRejected) {
  // Node ids: 0 document, 1 r, 2 a, 3 k, 4 b, 5 "text", 6 c, 7 @x, 8 p,
  // 9 "1", 10 p, 11 "2", 12 p, 13 q. The p at 12 is not a data element.
  const std::string text =
      "<r><a><k/></a><b/>text<c x=\"1\"/><p>1</p><p>2</p><p><q/></p></r>";
  Database db;
  ASSERT_TRUE(db.LoadDocument("d.xml", text).ok());
  const xml::Document& dom = *db.Get("d.xml")->dom;
  ASSERT_EQ(dom.NodeCount(), 14u);
  ASSERT_EQ(dom.Kind(7), xml::NodeKind::kAttribute);
  ASSERT_EQ(dom.NameStr(12), "p");
  TempFile file("primary_src.xqpack");
  auto info = db.Save("d.xml", file.path());
  ASSERT_TRUE(info.ok());
  const std::string image = ReadFileOrDie(file.path());
  using storage::SectionId;
  const auto kinds = SectionArray<uint8_t>(image, *info, SectionId::kNodeKinds);
  const auto names =
      SectionArray<xml::NameId>(image, *info, SectionId::kNodeNames);
  const auto bp = SectionArray<uint64_t>(image, *info, SectionId::kBpWords);
  const auto offsets =
      SectionArray<uint64_t>(image, *info, SectionId::kContentOffsets);
  const auto entries =
      SectionArray<xml::NodeId>(image, *info, SectionId::kValueElementEntries);
  const auto fence =
      SectionArray<uint32_t>(image, *info, SectionId::kValueElementOffsets);
  ASSERT_EQ(bp.size(), 1u);
  ASSERT_EQ(entries, (std::vector<xml::NodeId>{8, 10}));
  const auto kind = [](xml::NodeKind k) { return static_cast<uint8_t>(k); };

  struct Case {
    const char* what;
    std::string image;
    const char* section;
    const char* detail;
  };
  std::vector<Case> cases;
  const auto with_kind = [&](size_t node, uint8_t value) {
    auto mutated = kinds;
    mutated[node] = value;
    return ReplaceSection(image, SectionId::kNodeKinds, AsBytes(mutated));
  };
  cases.push_back({"kind out of range", with_kind(4, 9), "node_kinds",
                   "has invalid kind 9"});
  auto far_name = names;
  far_name[4] = 1000;
  cases.push_back({"name past the pool",
                   ReplaceSection(image, SectionId::kNodeNames,
                                  AsBytes(far_name)),
                   "node_names", "name id past the pool"});
  cases.push_back({"second document node",
                   with_kind(4, kind(xml::NodeKind::kDocument)), "node_kinds",
                   "is a second document node"});
  cases.push_back({"attribute with a child",
                   with_kind(2, kind(xml::NodeKind::kAttribute)), "node_kinds",
                   "which must be a leaf"});
  cases.push_back({"text node with a child",
                   with_kind(6, kind(xml::NodeKind::kText)), "node_kinds",
                   "which must be a leaf"});
  cases.push_back({"attribute not under an element",
                   with_kind(1, kind(xml::NodeKind::kAttribute)), "node_kinds",
                   "is not under an element"});
  cases.push_back({"attribute after an element child",
                   with_kind(4, kind(xml::NodeKind::kAttribute)), "node_kinds",
                   "comes after a child of its element"});

  // The sequence opens at bit 0 and closes at bit 27: swapping the two
  // keeps the open count but starts with a close.
  auto unbalanced = bp;
  ASSERT_EQ(unbalanced[0] & 1, 1u);
  ASSERT_EQ((unbalanced[0] >> 27) & 1, 0u);
  unbalanced[0] ^= (uint64_t{1} << 27) | 1;
  cases.push_back({"unbalanced",
                   ReplaceSection(image, SectionId::kBpWords,
                                  AsBytes(unbalanced)),
                   "bp_words", "unbalanced parentheses"});
  auto short_count = bp;
  short_count[0] &= ~uint64_t{2};
  cases.push_back({"open count",
                   ReplaceSection(image, SectionId::kBpWords,
                                  AsBytes(short_count)),
                   "bp_words", "does not match node count 14"});
  auto tail = bp;
  tail[0] |= uint64_t{1} << 40;
  cases.push_back({"tail bits",
                   ReplaceSection(image, SectionId::kBpWords, AsBytes(tail)),
                   "bp_words", "nonzero tail bits"});

  auto swapped_offsets = offsets;
  ASSERT_EQ(offsets, (std::vector<uint64_t>{0, 4, 5, 6}));
  std::swap(swapped_offsets[1], swapped_offsets[2]);
  cases.push_back({"offsets not monotone",
                   ReplaceSection(image, SectionId::kContentOffsets,
                                  AsBytes(swapped_offsets)),
                   "content_offsets", "is not monotone"});
  auto past_buffer = offsets;
  past_buffer.back() = 8;
  cases.push_back({"offset past the buffer",
                   ReplaceSection(image, SectionId::kContentOffsets,
                                  AsBytes(past_buffer)),
                   "content_offsets", "is not monotone"});
  auto extra_offset = offsets;
  extra_offset.push_back(7);
  cases.push_back({"offset count",
                   ReplaceSection(image, SectionId::kContentOffsets,
                                  AsBytes(extra_offset)),
                   "content_offsets",
                   "does not match content-bearing node count 4"});

  const auto with_entries = [&](const std::vector<xml::NodeId>& mutated) {
    return ReplaceSection(image, SectionId::kValueElementEntries,
                          AsBytes(mutated));
  };
  cases.push_back({"entry on a non-data element", with_entries({8, 12}),
                   "value_element_entries", "is not a data element"});
  cases.push_back({"run repeats a node", with_entries({8, 8}),
                   "value_element_entries", "repeats a node"});
  // Dropping p at 10: the run and every later fence entry shrink by one.
  const xml::NameId p = dom.Name(8);
  auto short_fence = fence;
  for (size_t name = p + 1; name < short_fence.size(); ++name) {
    --short_fence[name];
  }
  cases.push_back(
      {"run drops a node",
       ReplaceSection(with_entries({8}), SectionId::kValueElementOffsets,
                      AsBytes(short_fence)),
       "value_element_entries", "but the document has 2 data elements"});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    auto opened = OpenSnapshotFromBytes(FileBytes::Copy(c.image));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
    EXPECT_NE(opened.status().message().find(std::string(c.section) +
                                             " at offset"),
              std::string::npos)
        << opened.status().ToString();
    EXPECT_NE(opened.status().message().find(c.detail), std::string::npos)
        << opened.status().ToString();
  }
}

TEST(SnapshotTest, FaultInjectionAtWriteMapAndVerify) {
  Database db;
  datagen::BibOptions bib;
  bib.num_books = 8;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  TempFile file("faults.xqpack");

  FaultInjector::Instance().Arm("store.snapshot.write", 0, 1);
  auto save = db.Save("bib.xml", file.path());
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(save.ok());
  EXPECT_EQ(save.status().code(), StatusCode::kInternal);

  ASSERT_TRUE(db.Save("bib.xml", file.path()).ok());

  FaultInjector::Instance().Arm("store.snapshot.map", 0, 1);
  Database map_db;
  const Status map_status =
      map_db.Open("bib.xml", file.path(), SnapshotOpenMode::kMap);
  // The copy path has no mmap step, so the armed site must not affect it.
  Database copy_db;
  const Status copy_status =
      copy_db.Open("bib.xml", file.path(), SnapshotOpenMode::kCopy);
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(map_status.ok());
  EXPECT_EQ(map_status.code(), StatusCode::kInternal);
  EXPECT_TRUE(copy_status.ok()) << copy_status.ToString();

  FaultInjector::Instance().Arm("store.snapshot.verify", 0, 1);
  Database verify_db;
  const Status verify_status =
      verify_db.Open("bib.xml", file.path(), SnapshotOpenMode::kCopy);
  FaultInjector::Instance().Reset();
  ASSERT_FALSE(verify_status.ok());
  EXPECT_EQ(verify_status.code(), StatusCode::kParseError);
  EXPECT_NE(verify_status.message().find("injected verification failure"),
            std::string::npos)
      << verify_status.ToString();
}

}  // namespace
}  // namespace xmlq
