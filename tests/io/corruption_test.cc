// Corruption battery for the binary container: truncations, bit flips in
// every region, bad magic, unsupported versions, lying section tables,
// wrong artifact types, and semantically malformed payloads must all
// surface as descriptive core::Status errors — never a crash or an
// out-of-bounds access (this suite runs under ASan and TSan via
// DMT_SANITIZE in tools/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "assoc/apriori.h"
#include "core/check.h"
#include "core/crc32.h"
#include "core/mmap_file.h"
#include "gen/agrawal.h"
#include "gen/quest.h"
#include "io/bytes.h"
#include "io/container.h"
#include "io/serialize.h"
#include "tree/builder.h"

namespace dmt::io {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/dmt_io_corruption_" + name;
}

std::vector<std::byte> ReadBytes(const std::string& path) {
  auto text = core::ReadFileString(path);
  DMT_CHECK(text.ok());
  const auto* data = reinterpret_cast<const std::byte*>(text->data());
  return std::vector<std::byte>(data, data + text->size());
}

void WriteBytes(const std::string& path,
                const std::vector<std::byte>& bytes) {
  DMT_CHECK(core::WriteFileBytes(path, bytes).ok());
}

/// Recomputes the header/table CRC after a test deliberately edits header
/// or table fields (so the edit is seen by the semantic checks instead of
/// being masked by the checksum).
void FixHeaderCrc(std::vector<std::byte>* bytes) {
  FileHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  header.header_crc32 = 0;
  uint32_t crc = core::Crc32(&header, sizeof(header));
  crc = core::Crc32(bytes->data() + sizeof(FileHeader),
                    header.section_count * sizeof(SectionEntry), crc);
  std::memcpy(bytes->data() + offsetof(FileHeader, header_crc32), &crc,
              sizeof(crc));
}

core::TransactionDatabase TinyDatabase() {
  gen::QuestParams params;
  params.num_transactions = 200;
  params.avg_transaction_size = 6;
  params.num_items = 50;
  params.num_patterns = 20;
  auto db = gen::GenerateQuestTransactions(params, /*seed=*/3);
  DMT_CHECK(db.ok());
  return std::move(db).value();
}

/// A written transaction container plus its bytes, shared by the tests.
std::vector<std::byte> ValidContainerBytes() {
  static const std::vector<std::byte>* bytes = [] {
    const std::string path = TempPath("valid.dmtb");
    DMT_CHECK(WriteTransactionDatabase(TinyDatabase(), path).ok());
    return new std::vector<std::byte>(ReadBytes(path));
  }();
  return *bytes;
}

TEST(CorruptionTest, MissingFileIsAnError) {
  auto loaded = LoadTransactionDatabase(TempPath("does_not_exist.dmtb"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kIOError);
}

TEST(CorruptionTest, EveryTruncationFails) {
  const auto bytes = ValidContainerBytes();
  const std::string path = TempPath("truncated.dmtb");
  for (size_t length = 0; length < bytes.size();
       length += (length < 64 ? 1 : 7)) {
    WriteBytes(path, std::vector<std::byte>(bytes.begin(),
                                            bytes.begin() + length));
    auto loaded = LoadTransactionDatabase(path);
    ASSERT_FALSE(loaded.ok()) << "truncation to " << length
                              << " bytes was accepted";
    EXPECT_EQ(loaded.status().code(), core::StatusCode::kCorruption)
        << loaded.status().ToString();
    EXPECT_FALSE(loaded.status().message().empty());
  }
}

TEST(CorruptionTest, EveryFlippedByteFailsOrLoadsTheOriginal) {
  const auto bytes = ValidContainerBytes();
  const std::string path = TempPath("flipped.dmtb");
  auto baseline = LoadTransactionDatabase(TempPath("valid.dmtb"));
  ASSERT_TRUE(baseline.ok());
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    auto corrupt = bytes;
    corrupt[pos] ^= std::byte{0xFF};
    WriteBytes(path, corrupt);
    auto loaded = LoadTransactionDatabase(path);
    if (loaded.ok()) {
      // Only inter-section alignment padding is outside every checksum;
      // a load that still succeeds must be unaffected by the flip.
      EXPECT_TRUE(std::equal(baseline->items().begin(),
                             baseline->items().end(),
                             loaded->items().begin(),
                             loaded->items().end()))
          << "flip at byte " << pos << " silently changed the payload";
    } else {
      EXPECT_FALSE(loaded.status().message().empty());
    }
  }
}

TEST(CorruptionTest, BadMagicIsRejected) {
  auto bytes = ValidContainerBytes();
  bytes[0] = std::byte{'X'};
  FixHeaderCrc(&bytes);
  auto reader = ContainerReader::FromBytes(
      bytes, ArtifactType::kTransactionDatabase);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), core::StatusCode::kCorruption);
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos)
      << reader.status().ToString();
}

TEST(CorruptionTest, UnsupportedVersionIsRejected) {
  auto bytes = ValidContainerBytes();
  const uint32_t future_version = 99;
  std::memcpy(bytes.data() + offsetof(FileHeader, format_version),
              &future_version, sizeof(future_version));
  FixHeaderCrc(&bytes);
  auto reader = ContainerReader::FromBytes(
      bytes, ArtifactType::kTransactionDatabase);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("version"), std::string::npos);
}

TEST(CorruptionTest, OversizedSectionLengthIsRejected) {
  auto bytes = ValidContainerBytes();
  // Entry 0 starts right after the header; length sits at offset 16
  // within the entry.
  const size_t entry0 = sizeof(FileHeader);
  const uint64_t huge = 1ull << 40;
  std::memcpy(bytes.data() + entry0 + offsetof(SectionEntry, length), &huge,
              sizeof(huge));
  FixHeaderCrc(&bytes);
  auto reader = ContainerReader::FromBytes(
      bytes, ArtifactType::kTransactionDatabase);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), core::StatusCode::kCorruption);
  EXPECT_NE(reader.status().message().find("outside"), std::string::npos);
}

TEST(CorruptionTest, OverlappingSectionsAreRejected) {
  auto bytes = ValidContainerBytes();
  // Point entry 1 at entry 0's payload.
  const size_t entry0 = sizeof(FileHeader);
  const size_t entry1 = entry0 + sizeof(SectionEntry);
  uint64_t offset0 = 0;
  std::memcpy(&offset0, bytes.data() + entry0 + offsetof(SectionEntry, offset),
              sizeof(offset0));
  std::memcpy(bytes.data() + entry1 + offsetof(SectionEntry, offset),
              &offset0, sizeof(offset0));
  // Keep entry 1's CRC valid for its new payload so the overlap check is
  // what fires, not the checksum.
  uint64_t length1 = 0;
  std::memcpy(&length1, bytes.data() + entry1 + offsetof(SectionEntry, length),
              sizeof(length1));
  if (offset0 + length1 <= bytes.size()) {
    const uint32_t crc =
        core::Crc32(bytes.data() + offset0, static_cast<size_t>(length1));
    std::memcpy(bytes.data() + entry1 + offsetof(SectionEntry, crc32), &crc,
                sizeof(crc));
  }
  FixHeaderCrc(&bytes);
  auto reader = ContainerReader::FromBytes(
      bytes, ArtifactType::kTransactionDatabase);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), core::StatusCode::kCorruption);
}

TEST(CorruptionTest, WrongArtifactTypeIsRejected) {
  const std::string path = TempPath("dataset.dmtb");
  gen::AgrawalParams params;
  params.num_records = 50;
  auto dataset = gen::GenerateAgrawal(params, /*seed=*/1);
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(WriteDataset(*dataset, path).ok());
  auto loaded = LoadTransactionDatabase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("Dataset"), std::string::npos)
      << loaded.status().ToString();
}

TEST(CorruptionTest, SemanticallyMalformedPayloadIsRejected) {
  // A container whose envelope is pristine but whose payload violates the
  // database invariants (decreasing offsets) must still fail.
  ByteWriter meta;
  meta.PutU64(2);  // transactions
  meta.PutU64(3);  // total items
  meta.PutU64(8);  // item universe
  const std::vector<uint64_t> offsets = {0, 2, 1};  // decreasing
  const std::vector<uint32_t> items = {1, 7, 3};
  ContainerWriter writer(ArtifactType::kTransactionDatabase);
  writer.AddSection(1, std::move(meta));
  writer.AddArraySection<uint64_t>(2, offsets);
  writer.AddArraySection<uint32_t>(3, items);
  const std::string path = TempPath("semantic.dmtb");
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  auto loaded = LoadTransactionDatabase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kCorruption);
  auto mapped = MappedTransactionDatabase::Map(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), core::StatusCode::kCorruption);
}

TEST(CorruptionTest, UnsortedTransactionIsRejected) {
  ByteWriter meta;
  meta.PutU64(1);
  meta.PutU64(3);
  meta.PutU64(8);
  const std::vector<uint64_t> offsets = {0, 3};
  const std::vector<uint32_t> items = {5, 2, 7};  // not increasing
  ContainerWriter writer(ArtifactType::kTransactionDatabase);
  writer.AddSection(1, std::move(meta));
  writer.AddArraySection<uint64_t>(2, offsets);
  writer.AddArraySection<uint32_t>(3, items);
  const std::string path = TempPath("unsorted.dmtb");
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  for (const auto& status : {LoadTransactionDatabase(path).status(),
                             MappedTransactionDatabase::Map(path).status()}) {
    EXPECT_EQ(status.code(), core::StatusCode::kCorruption);
    EXPECT_NE(status.message().find("increasing"), std::string::npos)
        << status.ToString();
  }
}

/// Flips one byte in the middle of every section payload of every
/// artifact type and asserts the matching loader reports corruption.
template <typename LoadFn>
void ExpectSectionFlipsRejected(const std::string& path, LoadFn load) {
  auto bytes = ReadBytes(path);
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), bytes.data() + sizeof(FileHeader),
              entries.size() * sizeof(SectionEntry));
  const std::string corrupt_path = path + ".corrupt";
  for (const SectionEntry& entry : entries) {
    if (entry.length == 0) continue;
    auto corrupt = bytes;
    corrupt[entry.offset + entry.length / 2] ^= std::byte{0x5A};
    WriteBytes(corrupt_path, corrupt);
    auto loaded = load(corrupt_path);
    ASSERT_FALSE(loaded.ok())
        << "flip in section " << entry.id << " of " << path
        << " was accepted";
    EXPECT_EQ(loaded.status().code(), core::StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(CorruptionTest, FlippedSectionBytesRejectedForEveryArtifact) {
  const auto db = TinyDatabase();
  const std::string txn_path = TempPath("artifact_txn.dmtb");
  ASSERT_TRUE(WriteTransactionDatabase(db, txn_path).ok());
  ExpectSectionFlipsRejected(txn_path, [](const std::string& p) {
    return LoadTransactionDatabase(p);
  });

  assoc::MiningParams params;
  params.min_support = 0.05;
  auto mined = assoc::MineApriori(db, params);
  ASSERT_TRUE(mined.ok());
  const std::string mining_path = TempPath("artifact_mining.dmtb");
  ASSERT_TRUE(WriteMiningResult(*mined, mining_path).ok());
  ExpectSectionFlipsRejected(mining_path, [](const std::string& p) {
    return LoadMiningResult(p);
  });

  gen::AgrawalParams agrawal;
  agrawal.num_records = 100;
  auto dataset = gen::GenerateAgrawal(agrawal, /*seed=*/2);
  ASSERT_TRUE(dataset.ok());
  const std::string dataset_path = TempPath("artifact_dataset.dmtb");
  ASSERT_TRUE(WriteDataset(*dataset, dataset_path).ok());
  ExpectSectionFlipsRejected(dataset_path, [](const std::string& p) {
    return LoadDataset(p);
  });

  auto built = tree::BuildC45(*dataset);
  ASSERT_TRUE(built.ok());
  const std::string tree_path = TempPath("artifact_tree.dmtb");
  ASSERT_TRUE(WriteDecisionTree(*built, tree_path).ok());
  ExpectSectionFlipsRejected(tree_path, [](const std::string& p) {
    return LoadDecisionTree(p);
  });
}

TEST(CorruptionTest, TreeWithDanglingChildIsRejected) {
  // Valid envelope, malformed node arena: child index past num_nodes.
  ByteWriter meta;
  meta.PutU64(1);
  ByteWriter nodes;
  nodes.PutU8(0);   // internal node
  nodes.PutU8(2);   // kNumericThreshold
  nodes.PutU32(0);  // majority
  nodes.PutU32(0);  // attribute
  nodes.PutU32(0);  // category
  nodes.PutF64(1.5);
  nodes.PutArray<uint32_t>(std::vector<uint32_t>{3, 1});  // class counts
  nodes.PutArray<uint32_t>(std::vector<uint32_t>{7});     // dangling child
  ByteWriter names;
  names.PutU32(0);
  names.PutU32(0);
  names.PutU32(0);
  ContainerWriter writer(ArtifactType::kDecisionTree);
  writer.AddSection(1, std::move(meta));
  writer.AddSection(2, std::move(nodes));
  writer.AddSection(3, std::move(names));
  const std::string path = TempPath("dangling_tree.dmtb");
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  auto loaded = LoadDecisionTree(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("child"), std::string::npos);
}

/// One hand-written record of a tree container's NODES section.
struct NodeRecord {
  bool leaf = true;
  tree::SplitKind kind = tree::SplitKind::kNumericThreshold;
  uint32_t majority = 0;
  uint32_t attribute = 0;
  uint32_t category = 0;
  double threshold = 0.0;
  std::vector<uint32_t> counts = {1, 1};
  std::vector<uint32_t> children;
};

/// NAMES of a hand-written tree: attribute 0 "x" is numeric (no captured
/// categories), attribute 1 "c" categorical with categories {a, b}.
struct NameRecord {
  std::vector<std::string> attributes = {"x", "c"};
  std::vector<std::vector<std::string>> categories = {{}, {"a", "b"}};
  std::vector<std::string> classes = {"no", "yes"};
};

NodeRecord Split(tree::SplitKind kind, uint32_t attribute,
                 std::vector<uint32_t> children) {
  NodeRecord node;
  node.leaf = false;
  node.kind = kind;
  node.attribute = attribute;
  node.threshold = 1.5;
  node.children = std::move(children);
  return node;
}

NodeRecord NumericSplit(std::vector<uint32_t> children) {
  return Split(tree::SplitKind::kNumericThreshold, 0, std::move(children));
}

/// A NAMES payload laid out the way WriteDecisionTree lays it out.
ByteWriter NamesBytes(const NameRecord& text) {
  ByteWriter names;
  names.PutU32(static_cast<uint32_t>(text.attributes.size()));
  for (const std::string& s : text.attributes) names.PutString(s);
  names.PutU32(static_cast<uint32_t>(text.categories.size()));
  for (const auto& list : text.categories) {
    names.PutU32(static_cast<uint32_t>(list.size()));
    for (const std::string& s : list) names.PutString(s);
  }
  names.PutU32(static_cast<uint32_t>(text.classes.size()));
  for (const std::string& s : text.classes) names.PutString(s);
  return names;
}

/// Writes a CRC-valid tree container holding exactly these records and
/// this NAMES payload, laid out the way WriteDecisionTree lays out a
/// tree, and returns its path.
std::string WriteRawTree(const std::string& name,
                         const std::vector<NodeRecord>& records,
                         const ByteWriter& names = NamesBytes({})) {
  ByteWriter meta;
  meta.PutU64(records.size());
  ByteWriter nodes;
  for (const NodeRecord& node : records) {
    nodes.PutU8(node.leaf ? 1 : 0);
    nodes.PutU8(static_cast<uint8_t>(node.kind));
    nodes.PutU32(node.majority);
    nodes.PutU32(node.attribute);
    nodes.PutU32(node.category);
    nodes.PutF64(node.threshold);
    nodes.PutArray<uint32_t>(node.counts);
    nodes.PutArray<uint32_t>(node.children);
  }
  ContainerWriter writer(ArtifactType::kDecisionTree);
  writer.AddSection(1, std::move(meta));
  writer.AddSection(2, std::move(nodes));
  writer.AddSection(3, ByteWriter(names));
  const std::string path = TempPath("raw_tree_" + name + ".dmtb");
  DMT_CHECK(writer.WriteToFile(path).ok());
  return path;
}

void ExpectTreeCorruption(const std::string& path,
                          const std::string& needle) {
  auto loaded = LoadDecisionTree(path);
  ASSERT_FALSE(loaded.ok()) << path << " was accepted";
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kCorruption)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
      << loaded.status().ToString();
}

TEST(CorruptionTest, HandWrittenTreeRecordsLoad) {
  // The baselines the shape cases below each break in one place: a
  // numeric, an equals and a multiway root, each over two leaves.
  for (NodeRecord root : {NumericSplit({1, 2}),
                          Split(tree::SplitKind::kCategoricalEquals, 1,
                                {1, 2}),
                          Split(tree::SplitKind::kCategoricalMultiway, 1,
                                {1, 2})}) {
    auto loaded = LoadDecisionTree(WriteRawTree("ok", {root, {}, {}}));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_nodes(), 3u);
  }
}

TEST(CorruptionTest, TreeChildNumberedBeforeItsParentIsRejected) {
  // Nodes 0 and 1 are each other's children: prediction would never end.
  ExpectTreeCorruption(
      WriteRawTree("cycle", {NumericSplit({1, 2}), NumericSplit({0, 3}), {},
                             {}}),
      "child index 0");
}

TEST(CorruptionTest, TreeNodeWithTwoParentsIsRejected) {
  ExpectTreeCorruption(
      WriteRawTree("two_parents", {NumericSplit({1, 2}), NumericSplit({2, 3}),
                                   {}, {}}),
      "already has a parent");
}

TEST(CorruptionTest, TreeNumericSplitShapeIsRejected) {
  // One child: prediction would read children[1] past the end.
  ExpectTreeCorruption(WriteRawTree("numeric_one_child",
                                    {NumericSplit({1}), {}}),
                       "has 1 children");
  // A threshold on a categorical attribute reads a missing numeric column.
  ExpectTreeCorruption(
      WriteRawTree("numeric_on_categorical",
                   {Split(tree::SplitKind::kNumericThreshold, 1, {1, 2}), {},
                    {}}),
      "threshold on categorical attribute 1");
}

TEST(CorruptionTest, TreeEqualsSplitShapeIsRejected) {
  NodeRecord past_categories =
      Split(tree::SplitKind::kCategoricalEquals, 1, {1, 2});
  past_categories.category = 2;
  ExpectTreeCorruption(
      WriteRawTree("equals_category", {past_categories, {}, {}}),
      "tests category 2");
  ExpectTreeCorruption(
      WriteRawTree("equals_three_children",
                   {Split(tree::SplitKind::kCategoricalEquals, 1, {1, 2, 3}),
                    {}, {}, {}}),
      "has 3 children");
}

TEST(CorruptionTest, TreeMultiwaySplitShapeIsRejected) {
  ExpectTreeCorruption(
      WriteRawTree("multiway_one_child",
                   {Split(tree::SplitKind::kCategoricalMultiway, 1, {1}), {}}),
      "has 1 children");
  // A numeric attribute has no categories to route by.
  ExpectTreeCorruption(
      WriteRawTree("multiway_on_numeric",
                   {Split(tree::SplitKind::kCategoricalMultiway, 0, {1, 2}),
                    {}, {}}),
      "routes to 0");
}

TEST(CorruptionTest, TreeLeafWithChildrenIsRejected) {
  NodeRecord leaf;
  leaf.children = {1, 2};
  ExpectTreeCorruption(WriteRawTree("leaf_children", {leaf, {}, {}}),
                       "leaf with children");
}

TEST(CorruptionTest, TreeSplitAttributeOutOfRangeIsRejected) {
  // Attribute 7 of a 1-attribute tree: prediction would read past the
  // dataset's columns.
  NameRecord one_attribute;
  one_attribute.attributes = {"x"};
  one_attribute.categories = {{}};
  ExpectTreeCorruption(
      WriteRawTree("attribute_7",
                   {Split(tree::SplitKind::kNumericThreshold, 7, {1, 2}), {},
                    {}},
                   NamesBytes(one_attribute)),
      "splits attribute 7 of 1");
  // Two attribute names but one category list.
  NameRecord short_categories;
  short_categories.categories = {{}};
  ExpectTreeCorruption(WriteRawTree("category_lists",
                                    {NumericSplit({1, 2}), {}, {}},
                                    NamesBytes(short_categories)),
                       "2 attribute names but 1 category lists");
}

TEST(CorruptionTest, TreeHistogramWidthIsRejected) {
  // A leaf whose majority is class 2 of 2 class names would answer a
  // label the tree cannot name.
  NodeRecord third_class;
  third_class.counts = {0, 0, 4};
  third_class.majority = 2;
  ExpectTreeCorruption(
      WriteRawTree("histogram_width", {NumericSplit({1, 2}), {}, third_class}),
      "3 histogram entries for 2 class names");
}

/// A u32 count no section can hold; at 32 B per std::string it asks for
/// 128 GiB, which the allocator refuses outright.
constexpr uint32_t kHugeCount = 0xFFFFFFFF;

template <typename T>
void ExpectCountRejected(const core::Result<T>& loaded) {
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kCorruption)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("list count 4294967295"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(CorruptionTest, TreeNameCountsAreBoundedBySection) {
  // One leaf, then a NAMES payload that stops at its huge count.
  auto load = [](const std::string& name, const ByteWriter& names) {
    return LoadDecisionTree(
        WriteRawTree("huge_" + name, {NodeRecord{}}, names));
  };
  {
    ByteWriter names;  // attribute-name count
    names.PutU32(kHugeCount);
    ExpectCountRejected(load("attributes", names));
  }
  {
    ByteWriter names;  // category-list count
    names.PutU32(0);
    names.PutU32(kHugeCount);
    ExpectCountRejected(load("category_lists", names));
  }
  {
    ByteWriter names;  // one attribute's category count
    names.PutU32(1);
    names.PutString("c");
    names.PutU32(1);
    names.PutU32(kHugeCount);
    ExpectCountRejected(load("categories", names));
  }
  {
    ByteWriter names;  // class-name count
    names.PutU32(0);
    names.PutU32(0);
    names.PutU32(kHugeCount);
    ExpectCountRejected(load("classes", names));
  }
}

TEST(CorruptionTest, DatasetSchemaCountsAreBoundedBySection) {
  auto write = [](const std::string& name, const ByteWriter& schema) {
    ContainerWriter writer(ArtifactType::kDataset);
    const std::vector<uint32_t> zero = {0};
    writer.AddSection(1, ByteWriter(schema));
    writer.AddArraySection<uint32_t>(2, zero);
    writer.AddArraySection<uint32_t>(16, zero);
    const std::string path = TempPath("huge_schema_" + name + ".dmtb");
    DMT_CHECK(writer.WriteToFile(path).ok());
    return path;
  };
  {
    ByteWriter schema;  // class-name count
    schema.PutU64(1);
    schema.PutU32(0);
    schema.PutU32(kHugeCount);
    ExpectCountRejected(LoadDataset(write("classes", schema)));
  }
  {
    ByteWriter schema;  // one categorical attribute's category count
    schema.PutU64(1);
    schema.PutU32(1);
    schema.PutU32(1);
    schema.PutString("yes");
    schema.PutString("c");
    schema.PutU8(1);
    schema.PutU32(kHugeCount);
    ExpectCountRejected(LoadDataset(write("categories", schema)));
  }
}

TEST(CorruptionTest, KMeansAssignmentOutOfRangeIsRejected) {
  ByteWriter meta;
  meta.PutU64(2);  // k
  meta.PutU64(2);  // dim
  meta.PutU64(3);  // points
  meta.PutU64(4);  // iterations
  meta.PutU64(10);
  meta.PutF64(1.0);
  const std::vector<double> centers = {0, 0, 1, 1};
  const std::vector<uint32_t> assignments = {0, 1, 2};  // 2 >= k
  ContainerWriter writer(ArtifactType::kKMeansModel);
  writer.AddSection(1, std::move(meta));
  writer.AddArraySection<double>(2, centers);
  writer.AddArraySection<uint32_t>(3, assignments);
  const std::string path = TempPath("bad_kmeans.dmtb");
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  auto loaded = LoadKMeansModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kCorruption);
}

}  // namespace
}  // namespace dmt::io
