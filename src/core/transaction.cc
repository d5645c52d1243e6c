#include "core/transaction.h"

#include <algorithm>

#include "core/check.h"
#include "core/string_util.h"

namespace dmt::core {

void TransactionDatabase::Add(std::span<const ItemId> items) {
  std::vector<ItemId> sorted(items.begin(), items.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  items_.insert(items_.end(), sorted.begin(), sorted.end());
  offsets_.push_back(items_.size());
  if (!sorted.empty()) {
    item_universe_ =
        std::max(item_universe_, static_cast<size_t>(sorted.back()) + 1);
  }
}

std::span<const ItemId> TransactionDatabase::transaction(size_t t) const {
  DMT_CHECK_LT(t, size());
  return {items_.data() + offsets_[t],
          static_cast<size_t>(offsets_[t + 1] - offsets_[t])};
}

double TransactionDatabase::average_length() const {
  if (empty()) return 0.0;
  return static_cast<double>(items_.size()) / static_cast<double>(size());
}

std::vector<uint32_t> TransactionDatabase::ItemSupports() const {
  std::vector<uint32_t> supports(item_universe_, 0);
  for (size_t t = 0; t < size(); ++t) {
    for (ItemId item : transaction(t)) ++supports[item];
  }
  return supports;
}

std::string TransactionDatabase::ToBasketText() const {
  std::string out;
  for (size_t t = 0; t < size(); ++t) {
    auto items = transaction(t);
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(items[i]);
    }
    out += '\n';
  }
  return out;
}

Result<TransactionDatabase> TransactionDatabase::FromBasketText(
    std::string_view text) {
  TransactionDatabase db;
  std::vector<ItemId> current;
  std::string token;
  auto flush_token = [&]() -> Status {
    if (token.empty()) return Status::OK();
    DMT_ASSIGN_OR_RETURN(uint64_t value, ParseUint(token));
    if (value > 0xffffffffULL) {
      return Status::OutOfRange("item id " + token + " exceeds 32 bits");
    }
    current.push_back(static_cast<ItemId>(value));
    token.clear();
    return Status::OK();
  };
  for (char c : text) {
    if (c == ' ' || c == '\t' || c == '\r') {
      DMT_RETURN_NOT_OK(flush_token());
    } else if (c == '\n') {
      DMT_RETURN_NOT_OK(flush_token());
      db.Add(current);
      current.clear();
    } else {
      token += c;
    }
  }
  DMT_RETURN_NOT_OK(flush_token());
  if (!current.empty()) db.Add(current);
  return db;
}

Result<size_t> CheckSortedCsr(std::span<const uint64_t> offsets,
                              std::span<const ItemId> items) {
  if (offsets.empty() || offsets.front() != 0) {
    return Status::Corruption("CSR offsets must start with a 0 entry");
  }
  if (offsets.back() != items.size()) {
    return Status::Corruption(
        "last CSR offset " + std::to_string(offsets.back()) +
        " does not match item count " + std::to_string(items.size()));
  }
  size_t universe = 0;
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    if (offsets[t] > offsets[t + 1]) {
      return Status::Corruption("CSR offsets decrease at entry " +
                                std::to_string(t + 1));
    }
    for (uint64_t i = offsets[t] + 1; i < offsets[t + 1]; ++i) {
      if (items[i - 1] >= items[i]) {
        return Status::Corruption(
            "row " + std::to_string(t) +
            " is not strictly increasing (items must be sorted and "
            "duplicate-free)");
      }
    }
    if (offsets[t] < offsets[t + 1]) {
      universe = std::max(
          universe, static_cast<size_t>(items[offsets[t + 1] - 1]) + 1);
    }
  }
  return universe;
}

Result<TransactionDatabase> TransactionDatabase::FromColumns(
    std::vector<uint64_t> offsets, std::vector<ItemId> items) {
  DMT_ASSIGN_OR_RETURN(size_t universe, CheckSortedCsr(offsets, items));
  TransactionDatabase db;
  db.offsets_ = std::move(offsets);
  db.items_ = std::move(items);
  db.item_universe_ = universe;
  return db;
}

}  // namespace dmt::core
