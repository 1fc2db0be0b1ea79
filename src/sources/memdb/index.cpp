#include "sources/memdb/index.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace disco::memdb {

namespace {

// 32 entries of 48 bytes fill a leaf of about 1.5 KiB: a probe's binary
// search reads 5 of them, and a leaf costs 24 bytes of links and count.
constexpr size_t kLeafCapacity = 32;
constexpr size_t kInnerCapacity = 32;  ///< separators; one more child

/// Inserts `item` at `pos` into the full array `from` (`n` items) and
/// moves every item from position `keep` of the combined sequence onward
/// to the front of `to`; `from` keeps the first `keep` and its vacated
/// slots are reset, so no key payload outlives its entry.
template <typename T, size_t N>
void split_insert(std::array<T, N>& from, std::array<T, N>& to, size_t n,
                  size_t pos, T item, size_t keep) {
  if (pos < keep) {
    std::move(from.begin() + keep - 1, from.begin() + n, to.begin());
    std::move_backward(from.begin() + pos, from.begin() + keep - 1,
                       from.begin() + keep);
    from[pos] = std::move(item);
  } else {
    auto out = std::move(from.begin() + keep, from.begin() + pos, to.begin());
    *out++ = std::move(item);
    std::move(from.begin() + pos, from.begin() + n, out);
  }
  std::fill(from.begin() + std::min(keep, n), from.begin() + n, T{});
}

/// Inserts `item` at `pos` of an array holding `n` < N items.
template <typename T, size_t N>
void insert_at(std::array<T, N>& items, size_t n, size_t pos, T item) {
  std::move_backward(items.begin() + pos, items.begin() + n,
                     items.begin() + n + 1);
  items[pos] = std::move(item);
}

/// Removes the item at `pos` of an array holding `n` items and resets
/// the vacated last slot.
template <typename T, size_t N>
void erase_at(std::array<T, N>& items, size_t n, size_t pos) {
  std::move(items.begin() + pos + 1, items.begin() + n, items.begin() + pos);
  items[n - 1] = T{};
}

}  // namespace

struct OrderedIndex::Entry {
  Value key;
  size_t row = 0;
};

struct OrderedIndex::Node {
  size_t count = 0;  ///< entries in a leaf, separators in an inner node
};

struct OrderedIndex::Leaf : Node {
  Leaf* prev = nullptr;
  Leaf* next = nullptr;
  std::array<Entry, kLeafCapacity> entries;
};

struct OrderedIndex::Inner : Node {
  std::array<Entry, kInnerCapacity> separators;
  std::array<Node*, kInnerCapacity + 1> children{};  ///< count + 1 used
};

struct OrderedIndex::Split {
  Entry separator;  ///< the new right sibling's first entry
  Node* right = nullptr;
};

namespace {

/// (a_key, a_row) < (b_key, b_row): the order entries are stored in.
bool entry_less(const Value& a_key, size_t a_row, const Value& b_key,
                size_t b_row) {
  const int c = Value::compare(a_key, b_key);
  return c < 0 || (c == 0 && a_row < b_row);
}

/// Index of the child of `inner` whose subtree holds the first entry
/// `before` is false for (entries under a separator's right child order
/// at or above it).
template <typename I, typename Before>
size_t child_for(const I& inner, Before before) {
  const auto* first = inner.separators.data();
  return static_cast<size_t>(
      std::partition_point(first, first + inner.count, before) - first);
}

}  // namespace

OrderedIndex::OrderedIndex(std::string name, size_t column)
    : name_(std::move(name)), column_(column), root_(nullptr) {
  internal_check(!name_.empty(), "index needs a name");
  root_ = new Leaf;  // after the check: a throwing constructor frees nothing
}

OrderedIndex::~OrderedIndex() { free_subtree(root_, levels_); }

void OrderedIndex::free_subtree(Node* node, size_t level) {
  if (level == 1) {
    delete static_cast<Leaf*>(node);
    return;
  }
  auto* inner = static_cast<Inner*>(node);
  for (size_t i = 0; i <= inner->count; ++i) {
    free_subtree(inner->children[i], level - 1);
  }
  delete inner;
}

size_t OrderedIndex::leaves() const {
  const Node* node = root_;
  for (size_t level = levels_; level > 1; --level) {
    node = static_cast<const Inner*>(node)->children[0];
  }
  size_t count = 0;
  for (auto* leaf = static_cast<const Leaf*>(node); leaf != nullptr;
       leaf = leaf->next) {
    ++count;
  }
  return count;
}

void OrderedIndex::insert(const Value& key, size_t row) {
  Split split;
  if (insert_into(root_, levels_, Entry{key, row}, &split)) {
    auto* root = new Inner;
    root->count = 1;
    root->separators[0] = std::move(split.separator);
    root->children[0] = root_;
    root->children[1] = split.right;
    root_ = root;
    ++levels_;
  }
  ++size_;
}

bool OrderedIndex::insert_into(Node* node, size_t level, Entry entry,
                               Split* split) {
  if (level == 1) {
    auto* leaf = static_cast<Leaf*>(node);
    const Entry* first = leaf->entries.data();
    const auto pos = static_cast<size_t>(
        std::partition_point(first, first + leaf->count,
                             [&](const Entry& e) {
                               return entry_less(e.key, e.row, entry.key,
                                                 entry.row);
                             }) -
        first);
    if (leaf->count < kLeafCapacity) {
      insert_at(leaf->entries, leaf->count, pos, std::move(entry));
      ++leaf->count;
      return false;
    }
    auto* right = new Leaf;
    const size_t keep =
        pos == kLeafCapacity ? kLeafCapacity : (kLeafCapacity + 1) / 2;
    split_insert(leaf->entries, right->entries, kLeafCapacity, pos,
                 std::move(entry), keep);
    leaf->count = keep;
    right->count = kLeafCapacity + 1 - keep;
    right->prev = leaf;
    right->next = leaf->next;
    if (right->next != nullptr) right->next->prev = right;
    leaf->next = right;
    *split = Split{right->entries[0], right};
    return true;
  }

  auto* inner = static_cast<Inner*>(node);
  const size_t child = child_for(*inner, [&](const Entry& s) {
    return !entry_less(entry.key, entry.row, s.key, s.row);
  });
  Split below;
  if (!insert_into(inner->children[child], level - 1, std::move(entry),
                   &below)) {
    return false;
  }
  // The new child goes right of children[child], its separator between.
  if (inner->count < kInnerCapacity) {
    insert_at(inner->separators, inner->count, child,
              std::move(below.separator));
    insert_at(inner->children, inner->count + 1, child + 1, below.right);
    ++inner->count;
    return false;
  }
  auto* right = new Inner;
  if (child == kInnerCapacity) {
    // Right edge: this node stays full and the new child starts the
    // sibling; the separator moves up unchanged.
    right->children[0] = below.right;
    *split = Split{std::move(below.separator), right};
    return true;
  }
  // Halve: of the 33 separators the middle one moves up, 16 stay on each
  // side, and each side keeps the 17 children around its separators.
  constexpr size_t kMiddle = (kInnerCapacity + 1) / 2;
  split_insert(inner->separators, right->separators, kInnerCapacity, child,
               std::move(below.separator), kMiddle + 1);
  split_insert(inner->children, right->children, kInnerCapacity + 1,
               child + 1, below.right, kMiddle + 1);
  *split = Split{std::move(inner->separators[kMiddle]), right};
  inner->separators[kMiddle] = Entry{};
  inner->count = kMiddle;
  right->count = kInnerCapacity - kMiddle;
  return true;
}

bool OrderedIndex::erase(const Value& key, size_t row) {
  if (erase_from(root_, levels_, key, row) == Erased::Absent) return false;
  // A root left with one child hands the tree down to it.
  while (levels_ > 1 && root_->count == 0) {
    auto* root = static_cast<Inner*>(root_);
    root_ = root->children[0];
    delete root;
    --levels_;
  }
  --size_;
  return true;
}

OrderedIndex::Erased OrderedIndex::erase_from(Node* node, size_t level,
                                              const Value& key, size_t row) {
  if (level == 1) {
    auto* leaf = static_cast<Leaf*>(node);
    const Entry* first = leaf->entries.data();
    const Entry* last = first + leaf->count;
    const Entry* hit = std::partition_point(first, last, [&](const Entry& e) {
      return entry_less(e.key, e.row, key, row);
    });
    if (hit == last || entry_less(key, row, hit->key, hit->row)) {
      return Erased::Absent;
    }
    erase_at(leaf->entries, leaf->count, static_cast<size_t>(hit - first));
    --leaf->count;
    if (leaf->count > 0 || (leaf->prev == nullptr && leaf->next == nullptr)) {
      return Erased::Kept;  // the last leaf stays, even when empty
    }
    if (leaf->prev != nullptr) leaf->prev->next = leaf->next;
    if (leaf->next != nullptr) leaf->next->prev = leaf->prev;
    delete leaf;
    return Erased::Freed;
  }

  auto* inner = static_cast<Inner*>(node);
  const size_t child = child_for(*inner, [&](const Entry& s) {
    return !entry_less(key, row, s.key, s.row);
  });
  const Erased below = erase_from(inner->children[child], level - 1, key, row);
  if (below != Erased::Freed) return below;
  if (inner->count == 0) {  // that was its only child
    delete inner;
    return Erased::Freed;
  }
  // Drop the child and the separator on its left (or, for the first
  // child, on its right): the neighbours' bounds still hold.
  erase_at(inner->separators, inner->count, child > 0 ? child - 1 : 0);
  erase_at(inner->children, inner->count + 1, child);
  --inner->count;
  return Erased::Kept;
}

template <typename Before, typename Within>
void OrderedIndex::scan(Before before, Within within,
                        std::vector<size_t>* out) const {
  const Node* node = root_;
  for (size_t level = levels_; level > 1; --level) {
    const auto* inner = static_cast<const Inner*>(node);
    node = inner->children[child_for(*inner, before)];
  }
  const auto* leaf = static_cast<const Leaf*>(node);
  const Entry* first = leaf->entries.data();
  auto pos = static_cast<size_t>(
      std::partition_point(first, first + leaf->count, before) - first);
  // The start may lie past this leaf's last entry: its successor's first
  // entry is then the first at or above the separator that led here.
  for (; leaf != nullptr; leaf = leaf->next, pos = 0) {
    for (; pos < leaf->count; ++pos) {
      const Entry& entry = leaf->entries[pos];
      if (!within(entry)) return;
      out->push_back(entry.row);
    }
  }
}

void OrderedIndex::probe(const Value& key, std::vector<size_t>* out) const {
  scan([&](const Entry& e) { return Value::compare(e.key, key) < 0; },
       [&](const Entry& e) { return Value::compare(e.key, key) == 0; }, out);
}

void OrderedIndex::range(const Bound& lo, const Bound& hi,
                         std::vector<size_t>* out) const {
  scan(
      [&](const Entry& e) {
        if (!lo.present) return false;
        const int c = Value::compare(e.key, lo.value);
        return c < 0 || (c == 0 && !lo.inclusive);
      },
      [&](const Entry& e) {
        if (!hi.present) return true;
        const int c = Value::compare(e.key, hi.value);
        return c < 0 || (c == 0 && hi.inclusive);
      },
      out);
}

}  // namespace disco::memdb
