// Transaction (market-basket) database in a compact CSR layout.
#ifndef DMT_CORE_TRANSACTION_H_
#define DMT_CORE_TRANSACTION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/item_dictionary.h"
#include "core/status.h"

namespace dmt::core {

/// Validates a sorted CSR layout: offsets start at 0, never decrease and
/// end at items.size(), and every row is strictly increasing (sorted and
/// duplicate-free). Returns one past the largest item (0 when empty), or
/// Corruption naming the first violation. TransactionDatabase::FromColumns
/// and every container loader of a CSR layout run this one check.
Result<size_t> CheckSortedCsr(std::span<const uint64_t> offsets,
                              std::span<const ItemId> items);

/// Immutable-after-append set of transactions; each transaction is a sorted,
/// duplicate-free list of item ids. Stored CSR-style (one offsets array, one
/// flat items array) for cache-friendly scans — the dominant access pattern
/// of every frequent-itemset miner.
class TransactionDatabase {
 public:
  TransactionDatabase() { offsets_.push_back(0); }

  /// Appends a transaction; items are copied, sorted, and de-duplicated.
  void Add(std::span<const ItemId> items);

  /// Number of transactions.
  size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  /// Sorted, duplicate-free items of transaction `t`.
  std::span<const ItemId> transaction(size_t t) const;

  /// Total number of item occurrences across all transactions.
  size_t total_items() const { return items_.size(); }

  /// One past the largest item id present (0 when empty).
  size_t item_universe() const { return item_universe_; }

  /// Average transaction length (0 when empty).
  double average_length() const;

  /// Per-item occurrence counts, indexed by item id up to item_universe().
  std::vector<uint32_t> ItemSupports() const;

  /// Serializes to the conventional "basket file" text form: one transaction
  /// per line, space-separated item ids.
  std::string ToBasketText() const;

  /// Parses the basket text form produced by ToBasketText().
  static Result<TransactionDatabase> FromBasketText(std::string_view text);

  /// Adopts a pre-built CSR layout (the binary-container load path).
  /// Validates the structural invariants Add() establishes with
  /// CheckSortedCsr and returns Corruption when they fail, so a malformed
  /// file can never produce a database that violates miner
  /// preconditions.
  static Result<TransactionDatabase> FromColumns(
      std::vector<uint64_t> offsets, std::vector<ItemId> items);

  /// The raw CSR arrays (offsets has size()+1 entries, the serialized
  /// form of the database).
  std::span<const uint64_t> offsets() const { return offsets_; }
  std::span<const ItemId> items() const { return items_; }

 private:
  std::vector<uint64_t> offsets_;
  std::vector<ItemId> items_;
  size_t item_universe_ = 0;
};

}  // namespace dmt::core

#endif  // DMT_CORE_TRANSACTION_H_
