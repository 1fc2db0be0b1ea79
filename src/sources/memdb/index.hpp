// Ordered secondary index for memdb tables: a B+-tree keyed on Value
// with the engine's own comparison semantics (Value::compare — Int and
// Double unify on the number line, null == null, strings lexicographic).
// Using the exact comparator the predicate evaluator uses is what makes
// an index-driven answer provably equal to a scan-driven one: a probe
// for 1 finds rows storing 1.0, a probe for null finds null rows,
// exactly as `WHERE c = 1` / `WHERE c = null` would.
//
// Entries are (key, row id) pairs ordered by key then row id, so equal
// keys form contiguous runs and erase(key, row) is exact. Row ids are
// positions in the table's row vector; the table keeps them dense on
// delete by swapping the last row into the hole and re-pointing its
// index entries (Table::remove_row).
//
// Leaves are fixed-capacity arrays of sorted entries, chained both ways
// so a range scan walks contiguous memory leaf after leaf; inner nodes
// hold separator entries (every entry under the child left of a
// separator orders below it, every entry right of it at or above it) and
// child pointers. A node that overflows at its right edge stays full and
// the new entry starts its right sibling — a backfill in row order over
// increasing keys (the `id` index) packs every leaf — and any other
// overflow halves the node. An erase that empties a leaf frees it and
// drops it from its parent; nodes are never merged, and the last leaf
// stays, so an emptied index is one empty leaf. Nothing is random: the
// shape (and therefore probe cost) follows from the sequence of inserts
// and erases alone, which the virtual-time benches rely on.
//
// Concurrency: none here. The owning Table serializes writers and the
// Engine takes the table's shared lock around whole queries; the index
// is plain single-writer data behind that gate.
#pragma once

#include <string>
#include <vector>

#include "value/value.hpp"

namespace disco::memdb {

class OrderedIndex {
 public:
  /// `column` is the indexed column's position in the table layout.
  OrderedIndex(std::string name, size_t column);
  ~OrderedIndex();

  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }
  size_t size() const { return size_; }

  void insert(const Value& key, size_t row);
  /// Removes the exact (key, row) entry; returns false when absent.
  bool erase(const Value& key, size_t row);
  /// All row ids whose key compares equal to `key`, appended to `out`
  /// in row-id order (equal-key runs are stored sorted by row id).
  void probe(const Value& key, std::vector<size_t>* out) const;

  /// One side of a range scan; absent means unbounded.
  struct Bound {
    bool present = false;
    bool inclusive = true;
    Value value;

    static Bound open() { return Bound{}; }
    static Bound at(Value v, bool inclusive) {
      return Bound{true, inclusive, std::move(v)};
    }
  };
  /// Row ids with lo <= key <= hi (respecting inclusivity), appended to
  /// `out` in key order — callers sort when they need row order.
  void range(const Bound& lo, const Bound& hi, std::vector<size_t>* out) const;

  /// Shape of the tree: levels from root to leaves (1 while the root is
  /// a leaf) and the number of leaves (1 for an empty index).
  size_t levels() const { return levels_; }
  size_t leaves() const;

 private:
  struct Entry;
  struct Node;
  struct Leaf;
  struct Inner;
  struct Split;

  /// Inserts under `node`, `level` levels above the leaves (1 = leaf).
  /// Returns true and fills `split` when `node` overflowed into a new
  /// right sibling.
  bool insert_into(Node* node, size_t level, Entry entry, Split* split);
  enum class Erased { Absent, Kept, Freed };
  Erased erase_from(Node* node, size_t level, const Value& key, size_t row);
  /// Appends the rows of the entries from the first one `before` is
  /// false for, while `within` holds.
  template <typename Before, typename Within>
  void scan(Before before, Within within, std::vector<size_t>* out) const;
  static void free_subtree(Node* node, size_t level);

  std::string name_;
  size_t column_;
  size_t size_ = 0;
  size_t levels_ = 1;
  Node* root_;
};

}  // namespace disco::memdb
