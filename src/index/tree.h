// The iSAX index tree shared by ADS+, ParIS/ParIS+ and MESSI.
//
// Thread-safety contract (matches how the reproduced systems use it): the
// tree itself takes no locks. Parallel builders must ensure that each root
// subtree is mutated by at most one thread at a time (both ParIS and MESSI
// assign root subtrees to workers via Fetch&Inc, which guarantees this;
// the paper notes that parallelizing *within* a root subtree would need
// synchronization and is deliberately avoided). Reads (queries) only start
// after the build completes.
#ifndef PARISAX_INDEX_TREE_H_
#define PARISAX_INDEX_TREE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "index/leaf_storage.h"
#include "index/node.h"
#include "util/status.h"

namespace parisax {

/// Structural parameters of an iSAX index.
struct SaxTreeOptions {
  /// Number of PAA segments w (<= kMaxSegments). The paper fixes 16.
  int segments = 16;
  /// Maximum entries per leaf before it splits.
  size_t leaf_capacity = 128;
  /// Length n of the indexed series (needed for mindist scaling).
  size_t series_length = 256;
};

/// Aggregate shape statistics of a tree.
struct TreeStats {
  size_t root_children = 0;
  size_t inner_nodes = 0;
  size_t leaves = 0;
  size_t total_entries = 0;  ///< includes flushed chunks
  size_t max_depth = 0;      ///< root children have depth 1
  size_t oversized_leaves = 0;
};

/// One leaf of a sealed tree. The word comes first, so
/// SymbolBoundTable::WordBounds reads a run of entries as strided words.
struct LeafDirEntry {
  SaxWord word;
  Node* leaf = nullptr;
};
static_assert(offsetof(LeafDirEntry, word) == 0);

class SaxTree {
 public:
  explicit SaxTree(const SaxTreeOptions& options);

  const SaxTreeOptions& options() const { return options_; }

  /// Number of root slots (2^w).
  size_t root_slots() const { return roots_.size(); }

  /// Root child for `key`, or nullptr.
  Node* RootAt(uint32_t key) const { return roots_[key].get(); }

  /// Root child for `key`, created (empty leaf) if absent. Safe to call
  /// concurrently only for *distinct* keys.
  Node* GetOrCreateRoot(uint32_t key);

  /// Replaces the root child for `key` with a fresh empty leaf and
  /// returns it (delta-snapshot replay: a touched subtree is restored
  /// wholesale). Safe to call concurrently only for *distinct* keys;
  /// call SealRoots afterwards.
  Node* RecreateRoot(uint32_t key);

  /// Inserts an entry into the subtree rooted at `subtree` (which must
  /// contain it), splitting overflowing leaves. `storage` is required to
  /// split leaves that have flushed chunks. Single-threaded per subtree.
  Status InsertIntoSubtree(Node* subtree, const LeafEntry& entry,
                           LeafStorage* storage = nullptr);

  /// Serial convenience: routes through the root. Used by the ADS+
  /// (serial) builder and by tests.
  Status Insert(const LeafEntry& entry, LeafStorage* storage = nullptr);

  /// Finalizes the set of present root keys and the leaf directory after
  /// building; must be called once, single-threaded, before PresentRoots /
  /// LeafDirectory / ApproximateLeaf, and again after any later mutation.
  void SealRoots();

  /// Keys of existing root children, ascending. Valid after SealRoots.
  const std::vector<uint32_t>& PresentRoots() const { return present_roots_; }

  /// Every leaf (empty ones included) with its word, in root-key order
  /// and left to right within a root subtree: MESSI bounds this whole
  /// run in batches instead of descending the tree per query. Valid
  /// after SealRoots, until the tree is next mutated.
  const std::vector<LeafDirEntry>& LeafDirectory() const {
    return leaf_directory_;
  }

  /// The leaf an exact-match descent reaches for `query_sax`; if the root
  /// child is absent, falls back to the present root whose region is
  /// closest to `query_paa`. Returns nullptr only for an empty tree.
  /// This is the iSAX "approximate search" used to seed the BSF.
  Node* ApproximateLeaf(const SaxSymbols& query_sax,
                        const float* query_paa) const;

  /// Depth-first visit of every leaf under `node` (or the whole tree if
  /// node == nullptr).
  void VisitLeaves(Node* node, const std::function<void(Node*)>& fn) const;

  /// Structural validation for tests: word nesting, routing consistency,
  /// leaf capacity (modulo unsplittable leaves), entry containment.
  Status CheckInvariants(LeafStorage* storage = nullptr) const;

  TreeStats Collect() const;

 private:
  /// Splits an overflowing leaf (cascading if one child receives
  /// everything). Requires the leaf's chunks to be readable via `storage`
  /// when present.
  Status SplitLeaf(Node* leaf, LeafStorage* storage);

  /// Most-balanced-split segment, or -1 if every segment is at max
  /// cardinality.
  int ChooseSplitSegment(const Node& leaf,
                         const std::vector<LeafEntry>& all_entries) const;

  SaxTreeOptions options_;
  std::vector<std::unique_ptr<Node>> roots_;
  std::vector<uint32_t> present_roots_;
  std::vector<LeafDirEntry> leaf_directory_;
};

}  // namespace parisax

#endif  // PARISAX_INDEX_TREE_H_
