// Index tree nodes (shared by ADS+, ParIS/ParIS+ and MESSI).
//
// The tree has three layers of behaviour (see Fig. 1(d) of the paper):
//  * a root fanning out to up to 2^w children, addressed by the first bit
//    of each segment's symbol;
//  * inner nodes, each with exactly two children produced by a binary
//    split that added one bit of cardinality to one segment;
//  * leaves holding (iSAX symbols, series id) entries, optionally
//    materialized on disk in chunks (ParIS/ParIS+).
#ifndef PARISAX_INDEX_NODE_H_
#define PARISAX_INDEX_NODE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.h"
#include "sax/word.h"
#include "util/mutex.h"

namespace parisax {

/// One indexed series inside a leaf: its full-cardinality summary plus the
/// position of the raw series in the collection (the "pointer to the raw
/// data" of the paper).
struct LeafEntry {
  SaxSymbols sax;
  SeriesId id = 0;
};
// SymbolBoundTable::Bounds reads a leaf's entries as strided symbol rows.
static_assert(offsetof(LeafEntry, sax) == 0);

/// Reference to a chunk of LeafEntry records materialized in LeafStorage.
struct LeafChunkRef {
  uint64_t offset = 0;
  uint32_t count = 0;
};

class Node {
 public:
  explicit Node(const SaxWord& word) : word_(word) {}

  bool IsLeaf() const { return children_[0] == nullptr; }

  const SaxWord& word() const { return word_; }

  // --- Inner-node accessors -------------------------------------------

  /// The segment whose cardinality the split refined.
  int split_segment() const { return split_segment_; }
  Node* child(int bit) const { return children_[bit].get(); }

  /// Child an entry with these symbols descends into: decided by the bit
  /// that the split added.
  Node* Route(const SaxSymbols& sax) const {
    const int seg = split_segment_;
    const int child_bits = children_[0]->word_.bits[seg];
    const int bit = TruncateSymbol(sax.symbols[seg], child_bits) & 1;
    return children_[bit].get();
  }

  // --- Leaf accessors ---------------------------------------------------

  /// In-memory entries (excluding flushed chunks).
  std::vector<LeafEntry>& entries() { return entries_; }
  const std::vector<LeafEntry>& entries() const { return entries_; }

  /// Chunks of this leaf already written to LeafStorage.
  std::vector<LeafChunkRef>& flushed_chunks() { return flushed_chunks_; }
  const std::vector<LeafChunkRef>& flushed_chunks() const {
    return flushed_chunks_;
  }

  /// Total entries in this leaf, in memory and on disk.
  size_t LeafSize() const {
    size_t total = entries_.size();
    for (const auto& c : flushed_chunks_) total += c.count;
    return total;
  }

  /// Lock serializing leaf mutation against concurrent flushing (only
  /// exercised by the ParIS+ build pipeline).
  Mutex& leaf_mutex() PARISAX_RETURN_CAPABILITY(leaf_mutex_) {
    return leaf_mutex_;
  }

  // --- Structure mutation (single-threaded per subtree) ----------------

  /// Turns this leaf into an inner node with two fresh leaf children whose
  /// words extend this node's word by one bit of `segment`'s cardinality.
  /// The caller redistributes the entries.
  void MakeInner(int segment);

 private:
  SaxWord word_;
  int split_segment_ = -1;
  std::unique_ptr<Node> children_[2];
  std::vector<LeafEntry> entries_;
  std::vector<LeafChunkRef> flushed_chunks_;
  Mutex leaf_mutex_{"Node::leaf_mutex_", LockRank::kLeafNode};
};

}  // namespace parisax

#endif  // PARISAX_INDEX_NODE_H_
