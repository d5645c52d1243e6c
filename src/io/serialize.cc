#include "io/serialize.h"

#include <cstring>
#include <utility>

#include "io/bytes.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::io {

namespace {

// Section ids. Each artifact starts its fixed sections at 1; Dataset
// feature columns occupy kColumnBase + attribute index.
constexpr uint32_t kMeta = 1;
constexpr uint32_t kOffsets = 2;
constexpr uint32_t kItems = 3;
constexpr uint32_t kSupports = 4;
constexpr uint32_t kLabels = 2;
constexpr uint32_t kNodes = 2;
constexpr uint32_t kNames = 3;
constexpr uint32_t kRules = 1;
constexpr uint32_t kCenters = 2;
constexpr uint32_t kAssignments = 3;
constexpr uint32_t kQuantItems = 2;
constexpr uint32_t kQuantRules = 3;
constexpr uint32_t kColumnBase = 16;

/// A serialized string is at least its u32 length prefix.
constexpr size_t kMinStringBytes = sizeof(uint32_t);

core::Status WriteContainer(const ContainerWriter& writer,
                            const std::string& path) {
  obs::Span span("io/serialize/write");
  std::vector<std::byte> bytes = writer.Serialize();
  span.AddArg("bytes", bytes.size());
  obs::Counter("io/bytes_written").Add(bytes.size());
  return core::WriteFileBytes(path, bytes);
}

/// Rewraps a payload check's failure as corruption of `path`: shape and
/// range failures out of a checksummed file are corruption, not caller
/// error, so the caller sees one code (and the file name) for bad files.
core::Status CorruptIn(const std::string& path, const core::Status& status) {
  return core::Status::Corruption(path + ": " + status.message());
}

/// Reads a u32-counted list of strings.
core::Result<std::vector<std::string>> ReadStrings(ByteReader* stream) {
  DMT_ASSIGN_OR_RETURN(uint64_t count,
                       stream->ReadCount<uint32_t>(kMinStringBytes));
  std::vector<std::string> strings(count);
  for (std::string& s : strings) {
    DMT_ASSIGN_OR_RETURN(s, stream->ReadString());
  }
  return strings;
}

}  // namespace

// ---- TransactionDatabase ------------------------------------------------

core::Status WriteTransactionDatabase(const core::TransactionDatabase& db,
                                      const std::string& path) {
  ContainerWriter writer(ArtifactType::kTransactionDatabase);
  ByteWriter meta;
  meta.PutU64(db.size());
  meta.PutU64(db.total_items());
  meta.PutU64(db.item_universe());
  writer.AddSection(kMeta, std::move(meta));
  writer.AddArraySection<uint64_t>(kOffsets, db.offsets());
  writer.AddArraySection<core::ItemId>(kItems, db.items());
  return WriteContainer(writer, path);
}

namespace {

/// Shared by the owning loader and the mmap view: checks META against the
/// raw sections so both paths reject the same malformed inputs.
core::Status CheckTransactionSections(const ContainerReader& reader,
                                      std::span<const uint64_t> offsets,
                                      std::span<const core::ItemId> items,
                                      uint64_t* item_universe) {
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_bytes,
                       reader.Section(kMeta));
  ByteReader meta(meta_bytes, reader.name() + ": META");
  DMT_ASSIGN_OR_RETURN(uint64_t num_transactions, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t total_items, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(*item_universe, meta.ReadU64());
  DMT_RETURN_NOT_OK(meta.ExpectEnd());
  if (offsets.size() != num_transactions + 1) {
    return core::Status::Corruption(
        reader.name() + ": OFFSETS holds " + std::to_string(offsets.size()) +
        " entries, META declares " + std::to_string(num_transactions) +
        " transactions");
  }
  if (items.size() != total_items) {
    return core::Status::Corruption(
        reader.name() + ": ITEMS holds " + std::to_string(items.size()) +
        " entries, META declares " + std::to_string(total_items));
  }
  return core::Status::OK();
}

}  // namespace

core::Result<core::TransactionDatabase> LoadTransactionDatabase(
    const std::string& path) {
  obs::Span span("io/serialize/load/transactions");
  DMT_ASSIGN_OR_RETURN(
      ContainerReader reader,
      ContainerReader::Map(path, ArtifactType::kTransactionDatabase));
  DMT_ASSIGN_OR_RETURN(std::span<const uint64_t> offsets,
                       reader.SectionAs<uint64_t>(kOffsets));
  DMT_ASSIGN_OR_RETURN(std::span<const core::ItemId> items,
                       reader.SectionAs<core::ItemId>(kItems));
  uint64_t declared_universe = 0;
  DMT_RETURN_NOT_OK(
      CheckTransactionSections(reader, offsets, items, &declared_universe));
  // FromColumns runs the CSR check: the load's one validation pass.
  auto built = core::TransactionDatabase::FromColumns(
      std::vector<uint64_t>(offsets.begin(), offsets.end()),
      std::vector<core::ItemId>(items.begin(), items.end()));
  if (!built.ok()) return CorruptIn(path, built.status());
  core::TransactionDatabase db = std::move(built).value();
  if (db.item_universe() != declared_universe) {
    return core::Status::Corruption(
        path + ": META item universe " + std::to_string(declared_universe) +
        " does not match items (" + std::to_string(db.item_universe()) + ")");
  }
  span.AddArg("transactions", db.size());
  return db;
}

core::Result<MappedTransactionDatabase> MappedTransactionDatabase::Map(
    const std::string& path) {
  obs::Span span("io/serialize/load/transactions_mmap");
  MappedTransactionDatabase view;
  DMT_ASSIGN_OR_RETURN(
      view.reader_,
      ContainerReader::Map(path, ArtifactType::kTransactionDatabase));
  DMT_ASSIGN_OR_RETURN(view.offsets_,
                       view.reader_.SectionAs<uint64_t>(kOffsets));
  DMT_ASSIGN_OR_RETURN(view.items_,
                       view.reader_.SectionAs<core::ItemId>(kItems));
  uint64_t declared_universe = 0;
  DMT_RETURN_NOT_OK(CheckTransactionSections(
      view.reader_, view.offsets_, view.items_, &declared_universe));
  // The CSR check FromColumns runs, in place on the mapping.
  auto universe = core::CheckSortedCsr(view.offsets_, view.items_);
  if (!universe.ok()) return CorruptIn(path, universe.status());
  if (*universe != declared_universe) {
    return core::Status::Corruption(
        path + ": META item universe " + std::to_string(declared_universe) +
        " does not match items (" + std::to_string(*universe) + ")");
  }
  view.item_universe_ = *universe;
  span.AddArg("transactions", view.size());
  return view;
}

core::TransactionDatabase MappedTransactionDatabase::ToOwned() const {
  // Map() already validated the invariants, so FromColumns cannot fail.
  auto db = core::TransactionDatabase::FromColumns(
      std::vector<uint64_t>(offsets_.begin(), offsets_.end()),
      std::vector<core::ItemId>(items_.begin(), items_.end()));
  return std::move(db).value();
}

// ---- Dataset ------------------------------------------------------------

core::Status WriteDataset(const core::Dataset& dataset,
                          const std::string& path) {
  ContainerWriter writer(ArtifactType::kDataset);
  ByteWriter schema;
  schema.PutU64(dataset.num_rows());
  schema.PutU32(static_cast<uint32_t>(dataset.num_attributes()));
  schema.PutU32(static_cast<uint32_t>(dataset.num_classes()));
  for (const std::string& name : dataset.class_names()) {
    schema.PutString(name);
  }
  for (size_t a = 0; a < dataset.num_attributes(); ++a) {
    const core::AttributeInfo& info = dataset.attribute(a);
    schema.PutString(info.name);
    schema.PutU8(info.type == core::AttributeType::kNumeric ? 0 : 1);
    if (info.type == core::AttributeType::kCategorical) {
      schema.PutU32(static_cast<uint32_t>(info.categories.size()));
      for (const std::string& category : info.categories) {
        schema.PutString(category);
      }
    }
  }
  writer.AddSection(kMeta, std::move(schema));
  writer.AddArraySection<uint32_t>(kLabels, dataset.labels());
  for (size_t a = 0; a < dataset.num_attributes(); ++a) {
    const uint32_t id = kColumnBase + static_cast<uint32_t>(a);
    if (dataset.attribute(a).type == core::AttributeType::kNumeric) {
      writer.AddArraySection<double>(id, dataset.NumericColumn(a));
    } else {
      writer.AddArraySection<uint32_t>(id, dataset.CategoricalColumn(a));
    }
  }
  return WriteContainer(writer, path);
}

core::Result<core::Dataset> LoadDataset(const std::string& path) {
  obs::Span span("io/serialize/load/dataset");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       ContainerReader::Map(path, ArtifactType::kDataset));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> schema_bytes,
                       reader.Section(kMeta));
  ByteReader schema(schema_bytes, path + ": SCHEMA");
  DMT_ASSIGN_OR_RETURN(uint64_t num_rows, schema.ReadU64());
  // An attribute holds at least a name length and a type tag.
  DMT_ASSIGN_OR_RETURN(uint64_t num_attributes,
                       schema.ReadCount<uint32_t>(kMinStringBytes + 1));
  DMT_ASSIGN_OR_RETURN(std::vector<std::string> class_names,
                       ReadStrings(&schema));

  core::DatasetBuilder builder;
  for (uint32_t a = 0; a < num_attributes; ++a) {
    DMT_ASSIGN_OR_RETURN(std::string name, schema.ReadString());
    DMT_ASSIGN_OR_RETURN(uint8_t type_tag, schema.ReadU8());
    if (type_tag > 1) {
      return core::Status::Corruption(path + ": attribute '" + name +
                                      "' has unknown type tag " +
                                      std::to_string(type_tag));
    }
    const uint32_t column_id = kColumnBase + a;
    if (type_tag == 0) {
      DMT_ASSIGN_OR_RETURN(std::span<const double> column,
                           reader.SectionAs<double>(column_id));
      if (column.size() != num_rows) {
        return core::Status::Corruption(
            path + ": numeric column '" + name + "' holds " +
            std::to_string(column.size()) + " values for " +
            std::to_string(num_rows) + " rows");
      }
      builder.AddNumericColumn(
          std::move(name), std::vector<double>(column.begin(), column.end()));
    } else {
      DMT_ASSIGN_OR_RETURN(std::vector<std::string> categories,
                           ReadStrings(&schema));
      DMT_ASSIGN_OR_RETURN(std::span<const uint32_t> column,
                           reader.SectionAs<uint32_t>(column_id));
      if (column.size() != num_rows) {
        return core::Status::Corruption(
            path + ": categorical column '" + name + "' holds " +
            std::to_string(column.size()) + " values for " +
            std::to_string(num_rows) + " rows");
      }
      builder.AddCategoricalColumn(
          std::move(name),
          std::vector<uint32_t>(column.begin(), column.end()),
          std::move(categories));
    }
  }
  DMT_RETURN_NOT_OK(schema.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const uint32_t> labels,
                       reader.SectionAs<uint32_t>(kLabels));
  if (labels.size() != num_rows) {
    return core::Status::Corruption(
        path + ": LABELS holds " + std::to_string(labels.size()) +
        " entries for " + std::to_string(num_rows) + " rows");
  }
  builder.SetLabels(std::vector<uint32_t>(labels.begin(), labels.end()),
                    std::move(class_names));
  auto built = builder.Build();
  if (!built.ok()) return CorruptIn(path, built.status());
  span.AddArg("rows", num_rows);
  return std::move(built).value();
}

// ---- MiningResult -------------------------------------------------------

core::Status WriteMiningResult(const assoc::MiningResult& result,
                               const std::string& path) {
  ContainerWriter writer(ArtifactType::kMiningResult);
  std::vector<uint64_t> offsets;
  offsets.reserve(result.itemsets.size() + 1);
  std::vector<core::ItemId> items;
  std::vector<uint32_t> supports;
  supports.reserve(result.itemsets.size());
  offsets.push_back(0);
  for (const assoc::FrequentItemset& itemset : result.itemsets) {
    items.insert(items.end(), itemset.items.begin(), itemset.items.end());
    offsets.push_back(items.size());
    supports.push_back(itemset.support);
  }
  ByteWriter meta;
  meta.PutU64(result.itemsets.size());
  meta.PutU64(items.size());
  meta.PutU64(result.conditional_trees_built);
  meta.PutU64(result.fp_nodes_allocated);
  meta.PutU64(result.tidset_intersections);
  meta.PutU64(result.partitions_mined);
  meta.PutU64(result.bytes_mapped);
  meta.PutU64(result.passes.size());
  for (const assoc::PassStats& pass : result.passes) {
    meta.PutU64(pass.pass);
    meta.PutU64(pass.candidates);
    meta.PutU64(pass.frequent);
  }
  writer.AddSection(kMeta, std::move(meta));
  writer.AddArraySection<uint64_t>(kOffsets, std::span(offsets));
  writer.AddArraySection<core::ItemId>(kItems, std::span(items));
  writer.AddArraySection<uint32_t>(kSupports, std::span(supports));
  return WriteContainer(writer, path);
}

core::Result<assoc::MiningResult> LoadMiningResult(const std::string& path) {
  obs::Span span("io/serialize/load/mining_result");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       ContainerReader::Map(path, ArtifactType::kMiningResult));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_bytes,
                       reader.Section(kMeta));
  ByteReader meta(meta_bytes, path + ": META");
  DMT_ASSIGN_OR_RETURN(uint64_t num_itemsets, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t total_items, meta.ReadU64());
  assoc::MiningResult result;
  DMT_ASSIGN_OR_RETURN(result.conditional_trees_built, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(result.fp_nodes_allocated, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(result.tidset_intersections, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(result.partitions_mined, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(result.bytes_mapped, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t num_passes,
                       meta.ReadCount<uint64_t>(3 * sizeof(uint64_t)));
  result.passes.resize(num_passes);
  for (assoc::PassStats& pass : result.passes) {
    DMT_ASSIGN_OR_RETURN(uint64_t pass_k, meta.ReadU64());
    DMT_ASSIGN_OR_RETURN(uint64_t candidates, meta.ReadU64());
    DMT_ASSIGN_OR_RETURN(uint64_t frequent, meta.ReadU64());
    pass.pass = pass_k;
    pass.candidates = candidates;
    pass.frequent = frequent;
  }
  DMT_RETURN_NOT_OK(meta.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const uint64_t> offsets,
                       reader.SectionAs<uint64_t>(kOffsets));
  DMT_ASSIGN_OR_RETURN(std::span<const core::ItemId> items,
                       reader.SectionAs<core::ItemId>(kItems));
  DMT_ASSIGN_OR_RETURN(std::span<const uint32_t> supports,
                       reader.SectionAs<uint32_t>(kSupports));
  if (offsets.size() != num_itemsets + 1 || items.size() != total_items ||
      supports.size() != num_itemsets) {
    return core::Status::Corruption(
        path + ": section sizes disagree with the META counts");
  }
  auto checked = core::CheckSortedCsr(offsets, items);
  if (!checked.ok()) return CorruptIn(path, checked.status());
  result.itemsets.resize(num_itemsets);
  for (uint64_t i = 0; i < num_itemsets; ++i) {
    assoc::FrequentItemset& itemset = result.itemsets[i];
    itemset.items.assign(items.begin() + offsets[i],
                         items.begin() + offsets[i + 1]);
    itemset.support = supports[i];
  }
  span.AddArg("itemsets", num_itemsets);
  return result;
}

// ---- Rule sets ----------------------------------------------------------

namespace {

/// A rule's record without its items: the two array counts, the support
/// count and the five measures.
constexpr size_t kRuleRecordBytes =
    2 * sizeof(uint64_t) + sizeof(uint32_t) + 5 * sizeof(double);

/// Shared rule-stream encoding for plain and quantitative rule sets: a
/// u64 count followed by one record per rule — the two item arrays, the
/// absolute support count, and all five measures (supp, conf, lift,
/// conviction, leverage) as raw IEEE-754 bit patterns. The stream is
/// sized for all of it before the first rule is written.
void AppendRuleStream(const std::vector<assoc::AssociationRule>& rules,
                      ByteWriter* stream) {
  size_t bytes = stream->bytes().size() + sizeof(uint64_t);
  for (const assoc::AssociationRule& rule : rules) {
    bytes += kRuleRecordBytes + (rule.antecedent.size() +
                                 rule.consequent.size()) *
                                    sizeof(core::ItemId);
  }
  stream->Reserve(bytes);
  stream->PutU64(rules.size());
  for (const assoc::AssociationRule& rule : rules) {
    stream->PutArray<core::ItemId>(rule.antecedent);
    stream->PutArray<core::ItemId>(rule.consequent);
    stream->PutU32(rule.support_count);
    stream->PutF64(rule.support);
    stream->PutF64(rule.confidence);
    stream->PutF64(rule.lift);
    stream->PutF64(rule.conviction);
    stream->PutF64(rule.leverage);
  }
}

core::Result<std::vector<assoc::AssociationRule>> ReadRuleStream(
    ByteReader* stream) {
  DMT_ASSIGN_OR_RETURN(uint64_t num_rules,
                       stream->ReadCount<uint64_t>(kRuleRecordBytes));
  std::vector<assoc::AssociationRule> rules(num_rules);
  for (assoc::AssociationRule& rule : rules) {
    DMT_ASSIGN_OR_RETURN(
        rule.antecedent,
        stream->ReadArray<core::ItemId>(stream->remaining()));
    DMT_ASSIGN_OR_RETURN(
        rule.consequent,
        stream->ReadArray<core::ItemId>(stream->remaining()));
    DMT_ASSIGN_OR_RETURN(rule.support_count, stream->ReadU32());
    DMT_ASSIGN_OR_RETURN(rule.support, stream->ReadF64());
    DMT_ASSIGN_OR_RETURN(rule.confidence, stream->ReadF64());
    DMT_ASSIGN_OR_RETURN(rule.lift, stream->ReadF64());
    DMT_ASSIGN_OR_RETURN(rule.conviction, stream->ReadF64());
    DMT_ASSIGN_OR_RETURN(rule.leverage, stream->ReadF64());
  }
  return rules;
}

}  // namespace

core::Status WriteRuleSet(const std::vector<assoc::AssociationRule>& rules,
                          const std::string& path) {
  ContainerWriter writer(ArtifactType::kRuleSet);
  ByteWriter stream;
  AppendRuleStream(rules, &stream);
  writer.AddSection(kRules, std::move(stream));
  return WriteContainer(writer, path);
}

core::Result<std::vector<assoc::AssociationRule>> LoadRuleSet(
    const std::string& path) {
  obs::Span span("io/serialize/load/rule_set");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       ContainerReader::Map(path, ArtifactType::kRuleSet));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> payload,
                       reader.Section(kRules));
  ByteReader stream(payload, path + ": RULES");
  DMT_ASSIGN_OR_RETURN(std::vector<assoc::AssociationRule> rules,
                       ReadRuleStream(&stream));
  DMT_RETURN_NOT_OK(stream.ExpectEnd());
  span.AddArg("rules", rules.size());
  return rules;
}

// ---- Quantitative rule sets ---------------------------------------------

core::Status WriteQuantRuleSet(const assoc::QuantRuleSet& rule_set,
                               const std::string& path) {
  ContainerWriter writer(ArtifactType::kQuantRuleSet);
  ByteWriter meta;
  meta.PutF64(rule_set.partial_completeness);
  meta.PutU64(rule_set.itemsets_mined);
  meta.PutU64(rule_set.itemsets_attribute_distinct);
  writer.AddSection(kMeta, std::move(meta));

  ByteWriter items;
  items.PutU64(rule_set.items.size());
  for (const assoc::QuantItem& item : rule_set.items) {
    items.PutU32(item.attribute);
    items.PutU8(item.is_categorical ? 1 : 0);
    items.PutU32(item.category);
    items.PutF64(item.lo);
    items.PutF64(item.hi);
    items.PutU32(item.first_bin);
    items.PutU32(item.last_bin);
    items.PutString(item.label);
  }
  writer.AddSection(kQuantItems, std::move(items));

  ByteWriter rules;
  AppendRuleStream(rule_set.rules, &rules);
  writer.AddSection(kQuantRules, std::move(rules));
  return WriteContainer(writer, path);
}

core::Result<assoc::QuantRuleSet> LoadQuantRuleSet(const std::string& path) {
  obs::Span span("io/serialize/load/quant_rule_set");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       ContainerReader::Map(path, ArtifactType::kQuantRuleSet));
  assoc::QuantRuleSet rule_set;

  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_payload,
                       reader.Section(kMeta));
  ByteReader meta(meta_payload, path + ": META");
  DMT_ASSIGN_OR_RETURN(rule_set.partial_completeness, meta.ReadF64());
  DMT_ASSIGN_OR_RETURN(rule_set.itemsets_mined, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(rule_set.itemsets_attribute_distinct,
                       meta.ReadU64());
  DMT_RETURN_NOT_OK(meta.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> items_payload,
                       reader.Section(kQuantItems));
  ByteReader items(items_payload, path + ": QUANT_ITEMS");
  // An item holds at least its fixed fields and its label's length.
  DMT_ASSIGN_OR_RETURN(
      uint64_t num_items,
      items.ReadCount<uint64_t>(4 * sizeof(uint32_t) + sizeof(uint8_t) +
                                2 * sizeof(double) + kMinStringBytes));
  rule_set.items.resize(num_items);
  for (assoc::QuantItem& item : rule_set.items) {
    DMT_ASSIGN_OR_RETURN(item.attribute, items.ReadU32());
    DMT_ASSIGN_OR_RETURN(uint8_t is_categorical, items.ReadU8());
    item.is_categorical = is_categorical != 0;
    DMT_ASSIGN_OR_RETURN(item.category, items.ReadU32());
    DMT_ASSIGN_OR_RETURN(item.lo, items.ReadF64());
    DMT_ASSIGN_OR_RETURN(item.hi, items.ReadF64());
    DMT_ASSIGN_OR_RETURN(item.first_bin, items.ReadU32());
    DMT_ASSIGN_OR_RETURN(item.last_bin, items.ReadU32());
    DMT_ASSIGN_OR_RETURN(item.label, items.ReadString());
    if (!item.is_categorical && item.first_bin > item.last_bin) {
      return core::Status::Corruption(
          path + ": quant item interval run decreases (" +
          std::to_string(item.first_bin) + " > " +
          std::to_string(item.last_bin) + ")");
    }
  }
  DMT_RETURN_NOT_OK(items.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> rules_payload,
                       reader.Section(kQuantRules));
  ByteReader rules(rules_payload, path + ": QUANT_RULES");
  DMT_ASSIGN_OR_RETURN(rule_set.rules,
                       ReadRuleStream(&rules));
  DMT_RETURN_NOT_OK(rules.ExpectEnd());
  for (const assoc::AssociationRule& rule : rule_set.rules) {
    for (const assoc::Itemset* side : {&rule.antecedent, &rule.consequent}) {
      for (core::ItemId id : *side) {
        if (id >= rule_set.items.size()) {
          return core::Status::Corruption(
              path + ": rule references item " + std::to_string(id) +
              " beyond the " + std::to_string(rule_set.items.size()) +
              " quant items");
        }
      }
    }
  }
  span.AddArg("rules", rule_set.rules.size());
  return rule_set;
}

// ---- DecisionTree -------------------------------------------------------

core::Status WriteDecisionTree(const tree::DecisionTree& tree,
                               const std::string& path) {
  ContainerWriter writer(ArtifactType::kDecisionTree);
  ByteWriter meta;
  meta.PutU64(tree.num_nodes());
  writer.AddSection(kMeta, std::move(meta));

  ByteWriter nodes;
  for (size_t n = 0; n < tree.num_nodes(); ++n) {
    const tree::TreeNode& node = tree.node(n);
    nodes.PutU8(node.is_leaf ? 1 : 0);
    nodes.PutU8(static_cast<uint8_t>(node.kind));
    nodes.PutU32(node.majority_class);
    nodes.PutU32(node.attribute);
    nodes.PutU32(node.category);
    nodes.PutF64(node.threshold);
    nodes.PutArray<uint32_t>(node.class_counts);
    nodes.PutArray<uint32_t>(node.children);
  }
  writer.AddSection(kNodes, std::move(nodes));

  ByteWriter names;
  const auto& attribute_names =
      tree::internal::TreeAccess::AttributeNames(tree);
  const auto& attribute_categories =
      tree::internal::TreeAccess::AttributeCategories(tree);
  const auto& class_names = tree::internal::TreeAccess::ClassNames(tree);
  names.PutU32(static_cast<uint32_t>(attribute_names.size()));
  for (const std::string& name : attribute_names) names.PutString(name);
  names.PutU32(static_cast<uint32_t>(attribute_categories.size()));
  for (const auto& categories : attribute_categories) {
    names.PutU32(static_cast<uint32_t>(categories.size()));
    for (const std::string& category : categories) {
      names.PutString(category);
    }
  }
  names.PutU32(static_cast<uint32_t>(class_names.size()));
  for (const std::string& name : class_names) names.PutString(name);
  writer.AddSection(kNames, std::move(names));
  return WriteContainer(writer, path);
}

namespace {

/// The shape every tree the library writes has, checked once NAMES is
/// read: children are numbered after their parent and have one parent
/// each (so every walk from the root ends), each split has the children
/// its kind routes to and an attribute of the matching kind, leaves have
/// no children, and every histogram has one entry per class name.
/// Prediction and rendering index children, columns and names by these
/// fields without further checks.
core::Status CheckTreeShape(const tree::DecisionTree& tree,
                            const std::string& path) {
  using tree::internal::TreeAccess;
  const size_t num_attributes = TreeAccess::AttributeNames(tree).size();
  const auto& categories = TreeAccess::AttributeCategories(tree);
  const size_t num_classes = TreeAccess::ClassNames(tree).size();
  if (categories.size() != num_attributes) {
    return core::Status::Corruption(
        path + ": NAMES holds " + std::to_string(num_attributes) +
        " attribute names but " + std::to_string(categories.size()) +
        " category lists");
  }
  std::vector<bool> has_parent(tree.num_nodes(), false);
  for (size_t n = 0; n < tree.num_nodes(); ++n) {
    const tree::TreeNode& node = tree.node(n);
    auto bad = [&](const std::string& what) {
      return core::Status::Corruption(path + ": node " + std::to_string(n) +
                                      " " + what);
    };
    for (uint32_t child : node.children) {
      if (child <= n || child >= tree.num_nodes()) {
        return bad("has child index " + std::to_string(child) +
                   " outside (" + std::to_string(n) + ", " +
                   std::to_string(tree.num_nodes()) + ")");
      }
      if (has_parent[child]) {
        return bad("has child " + std::to_string(child) +
                   ", which already has a parent");
      }
      has_parent[child] = true;
    }
    if (node.class_counts.size() != num_classes) {
      return bad("has " + std::to_string(node.class_counts.size()) +
                 " histogram entries for " + std::to_string(num_classes) +
                 " class names");
    }
    if (node.is_leaf) {
      if (!node.children.empty()) return bad("is a leaf with children");
      continue;
    }
    if (node.attribute >= num_attributes) {
      return bad("splits attribute " + std::to_string(node.attribute) +
                 " of " + std::to_string(num_attributes));
    }
    const size_t num_categories = categories[node.attribute].size();
    size_t num_children = 2;
    switch (node.kind) {
      case tree::SplitKind::kNumericThreshold:
        if (num_categories != 0) {
          return bad("puts a threshold on categorical attribute " +
                     std::to_string(node.attribute));
        }
        break;
      case tree::SplitKind::kCategoricalEquals:
        if (node.category >= num_categories) {
          return bad("tests category " + std::to_string(node.category) +
                     " of attribute " + std::to_string(node.attribute) +
                     ", which has " + std::to_string(num_categories));
        }
        break;
      case tree::SplitKind::kCategoricalMultiway:
        num_children = num_categories;
        break;
    }
    if (num_children == 0 || node.children.size() != num_children) {
      return bad("has " + std::to_string(node.children.size()) +
                 " children where its split on attribute " +
                 std::to_string(node.attribute) + " routes to " +
                 std::to_string(num_children));
    }
  }
  return core::Status::OK();
}

}  // namespace

core::Result<tree::DecisionTree> LoadDecisionTree(const std::string& path) {
  obs::Span span("io/serialize/load/tree");
  DMT_ASSIGN_OR_RETURN(
      ContainerReader reader,
      ContainerReader::Map(path, ArtifactType::kDecisionTree));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_bytes,
                       reader.Section(kMeta));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> node_bytes,
                       reader.Section(kNodes));
  ByteReader meta(meta_bytes, path + ": META");
  ByteReader nodes(node_bytes, path + ": NODES");
  // A node holds at least its two tags, three u32 fields, its threshold
  // and its two array counts.
  DMT_ASSIGN_OR_RETURN(
      uint64_t num_nodes,
      meta.ReadCount<uint64_t>(2 * sizeof(uint8_t) + 3 * sizeof(uint32_t) +
                                   sizeof(double) + 2 * sizeof(uint64_t),
                               &nodes));
  DMT_RETURN_NOT_OK(meta.ExpectEnd());
  if (num_nodes == 0) {
    return core::Status::Corruption(path + ": tree with zero nodes");
  }
  tree::DecisionTree tree;
  auto& arena = tree::internal::TreeAccess::Nodes(tree);
  arena.resize(num_nodes);
  for (uint64_t n = 0; n < num_nodes; ++n) {
    tree::TreeNode& node = arena[n];
    DMT_ASSIGN_OR_RETURN(uint8_t is_leaf, nodes.ReadU8());
    DMT_ASSIGN_OR_RETURN(uint8_t kind, nodes.ReadU8());
    if (is_leaf > 1 || kind > 2) {
      return core::Status::Corruption(path + ": node " + std::to_string(n) +
                                      " has an invalid leaf/kind tag");
    }
    node.is_leaf = is_leaf != 0;
    node.kind = static_cast<tree::SplitKind>(kind);
    DMT_ASSIGN_OR_RETURN(node.majority_class, nodes.ReadU32());
    DMT_ASSIGN_OR_RETURN(node.attribute, nodes.ReadU32());
    DMT_ASSIGN_OR_RETURN(node.category, nodes.ReadU32());
    DMT_ASSIGN_OR_RETURN(node.threshold, nodes.ReadF64());
    DMT_ASSIGN_OR_RETURN(node.class_counts,
                         nodes.ReadArray<uint32_t>(nodes.remaining()));
    DMT_ASSIGN_OR_RETURN(node.children,
                         nodes.ReadArray<uint32_t>(nodes.remaining()));
    if (node.class_counts.empty() ||
        node.majority_class >= node.class_counts.size()) {
      return core::Status::Corruption(
          path + ": node " + std::to_string(n) +
          " majority class is out of its histogram's range");
    }
  }
  DMT_RETURN_NOT_OK(nodes.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> name_bytes,
                       reader.Section(kNames));
  ByteReader names(name_bytes, path + ": NAMES");
  DMT_ASSIGN_OR_RETURN(tree::internal::TreeAccess::AttributeNames(tree),
                       ReadStrings(&names));
  DMT_ASSIGN_OR_RETURN(uint64_t num_category_lists,
                       names.ReadCount<uint32_t>(kMinStringBytes));
  auto& attribute_categories =
      tree::internal::TreeAccess::AttributeCategories(tree);
  attribute_categories.resize(num_category_lists);
  for (auto& categories : attribute_categories) {
    DMT_ASSIGN_OR_RETURN(categories, ReadStrings(&names));
  }
  DMT_ASSIGN_OR_RETURN(tree::internal::TreeAccess::ClassNames(tree),
                       ReadStrings(&names));
  DMT_RETURN_NOT_OK(names.ExpectEnd());
  DMT_RETURN_NOT_OK(CheckTreeShape(tree, path));
  span.AddArg("nodes", num_nodes);
  return tree;
}

// ---- k-means models -----------------------------------------------------

core::Status WriteKMeansModel(const cluster::ClusteringResult& model,
                              const std::string& path) {
  ContainerWriter writer(ArtifactType::kKMeansModel);
  ByteWriter meta;
  meta.PutU64(model.centers.size());
  meta.PutU64(model.centers.dim());
  meta.PutU64(model.assignments.size());
  meta.PutU64(model.iterations);
  meta.PutU64(model.distance_computations);
  meta.PutF64(model.sse);
  writer.AddSection(kMeta, std::move(meta));
  writer.AddArraySection<double>(kCenters, std::span(model.centers.data()));
  writer.AddArraySection<uint32_t>(kAssignments,
                                   std::span(model.assignments));
  return WriteContainer(writer, path);
}

core::Result<cluster::ClusteringResult> LoadKMeansModel(
    const std::string& path) {
  obs::Span span("io/serialize/load/kmeans");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       ContainerReader::Map(path, ArtifactType::kKMeansModel));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_bytes,
                       reader.Section(kMeta));
  ByteReader meta(meta_bytes, path + ": META");
  DMT_ASSIGN_OR_RETURN(uint64_t k, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t dim, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t num_points, meta.ReadU64());
  cluster::ClusteringResult model;
  DMT_ASSIGN_OR_RETURN(model.iterations, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(model.distance_computations, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(model.sse, meta.ReadF64());
  DMT_RETURN_NOT_OK(meta.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const double> centers,
                       reader.SectionAs<double>(kCenters));
  if (dim == 0 ? !centers.empty() : centers.size() / dim != k ||
                                        centers.size() % dim != 0) {
    return core::Status::Corruption(
        path + ": CENTERS holds " + std::to_string(centers.size()) +
        " doubles, META declares k=" + std::to_string(k) + " dim=" +
        std::to_string(dim));
  }
  auto center_set = core::PointSet::FromFlat(
      dim, std::vector<double>(centers.begin(), centers.end()));
  if (!center_set.ok()) return CorruptIn(path, center_set.status());
  model.centers = std::move(center_set).value();

  DMT_ASSIGN_OR_RETURN(std::span<const uint32_t> assignments,
                       reader.SectionAs<uint32_t>(kAssignments));
  if (assignments.size() != num_points) {
    return core::Status::Corruption(
        path + ": ASSIGNMENTS holds " + std::to_string(assignments.size()) +
        " entries, META declares " + std::to_string(num_points));
  }
  for (uint32_t a : assignments) {
    if (a >= k) {
      return core::Status::Corruption(
          path + ": assignment indexes cluster " + std::to_string(a) +
          " but only " + std::to_string(k) + " centers exist");
    }
  }
  model.assignments.assign(assignments.begin(), assignments.end());
  span.AddArg("centers", k);
  return model;
}

}  // namespace dmt::io
