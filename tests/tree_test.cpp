// Tests for the iSAX tree: insertion, splitting (balance policy, cascades,
// max-cardinality overflow), routing, approximate descent, invariants and
// stats, and the sealed tree's leaf directory.
#include "index/tree.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "index/segment.h"
#include "io/generator.h"
#include "sax/mindist.h"
#include "sax/paa.h"
#include "util/rng.h"

namespace parisax {
namespace {

LeafEntry MakeEntry(const SaxSymbols& sax, SeriesId id) {
  LeafEntry e;
  e.sax = sax;
  e.id = id;
  return e;
}

SaxTreeOptions SmallOptions(int segments = 4, size_t leaf_capacity = 4) {
  SaxTreeOptions o;
  o.segments = segments;
  o.leaf_capacity = leaf_capacity;
  o.series_length = 64;
  return o;
}

std::vector<LeafEntry> EntriesFromDataset(const Dataset& data, int w) {
  std::vector<LeafEntry> entries;
  float paa[kMaxSegments];
  for (SeriesId i = 0; i < data.count(); ++i) {
    ComputePaa(data.series(i), w, paa);
    LeafEntry e;
    e.id = i;
    SymbolsFromPaa(paa, w, &e.sax);
    entries.push_back(e);
  }
  return entries;
}

TEST(NodeTest, MakeInnerRefinesWord) {
  SaxWord word = RootWord(0b1010, 4);
  Node node(word);
  ASSERT_TRUE(node.IsLeaf());
  node.MakeInner(2);
  ASSERT_FALSE(node.IsLeaf());
  EXPECT_EQ(node.split_segment(), 2);
  for (int bit = 0; bit < 2; ++bit) {
    const Node* child = node.child(bit);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->word().bits[2], 2);
    EXPECT_EQ(child->word().symbols[2], (word.symbols[2] << 1) | bit);
    // Other segments untouched.
    for (int s = 0; s < 4; ++s) {
      if (s == 2) continue;
      EXPECT_EQ(child->word().bits[s], word.bits[s]);
      EXPECT_EQ(child->word().symbols[s], word.symbols[s]);
    }
  }
}

TEST(NodeTest, RouteFollowsRefinedBit) {
  Node node(RootWord(0, 2));
  node.MakeInner(1);
  SaxSymbols low, high;
  low.symbols[1] = 0b00000000;   // second bit 0
  high.symbols[1] = 0b01000000;  // second bit 1 (top bit still 0)
  EXPECT_EQ(node.Route(low), node.child(0));
  EXPECT_EQ(node.Route(high), node.child(1));
}

TEST(TreeTest, InsertBuildsValidTree) {
  GeneratorOptions gen;
  gen.count = 2000;
  gen.length = 64;
  gen.seed = 23;
  const Dataset data = GenerateDataset(gen);
  const SaxTreeOptions options = SmallOptions(8, 16);
  SaxTree tree(options);
  for (const LeafEntry& e : EntriesFromDataset(data, options.segments)) {
    ASSERT_TRUE(tree.Insert(e).ok());
  }
  tree.SealRoots();
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const TreeStats stats = tree.Collect();
  EXPECT_EQ(stats.total_entries, data.count());
  EXPECT_GT(stats.leaves, data.count() / options.leaf_capacity / 2);
  EXPECT_EQ(stats.root_children, tree.PresentRoots().size());
}

TEST(TreeTest, EveryEntryReachableByRouting) {
  GeneratorOptions gen;
  gen.count = 500;
  gen.length = 64;
  gen.seed = 29;
  const Dataset data = GenerateDataset(gen);
  const SaxTreeOptions options = SmallOptions(8, 8);
  SaxTree tree(options);
  const auto entries = EntriesFromDataset(data, options.segments);
  for (const LeafEntry& e : entries) ASSERT_TRUE(tree.Insert(e).ok());
  tree.SealRoots();

  for (const LeafEntry& e : entries) {
    Node* node = tree.RootAt(RootKey(e.sax, options.segments));
    ASSERT_NE(node, nullptr);
    while (!node->IsLeaf()) node = node->Route(e.sax);
    bool found = false;
    for (const LeafEntry& le : node->entries()) {
      if (le.id == e.id) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "series " << e.id
                       << " not in the leaf routing reaches";
  }
}

TEST(TreeTest, LeafCapacityRespected) {
  GeneratorOptions gen;
  gen.count = 3000;
  gen.length = 64;
  gen.seed = 31;
  const Dataset data = GenerateDataset(gen);
  for (const size_t capacity : {1u, 2u, 7u, 64u}) {
    SaxTreeOptions options = SmallOptions(8, capacity);
    SaxTree tree(options);
    for (const LeafEntry& e : EntriesFromDataset(data, options.segments)) {
      ASSERT_TRUE(tree.Insert(e).ok());
    }
    tree.SealRoots();
    EXPECT_TRUE(tree.CheckInvariants().ok()) << "capacity=" << capacity;
    size_t checked = 0;
    tree.VisitLeaves(nullptr, [&](Node* leaf) {
      ++checked;
      if (leaf->LeafSize() > capacity) {
        // Only allowed at max cardinality everywhere.
        for (int s = 0; s < options.segments; ++s) {
          EXPECT_EQ(leaf->word().bits[s], kMaxCardBits);
        }
      }
    });
    EXPECT_GT(checked, 0u);
  }
}

TEST(TreeTest, DuplicateSummariesOverflowGracefully) {
  // Identical summaries cannot be separated by any split: the leaf chain
  // must refine to max cardinality and then hold everything.
  const SaxTreeOptions options = SmallOptions(2, 2);
  SaxTree tree(options);
  SaxSymbols sax;
  sax.symbols[0] = 0b10110010;
  sax.symbols[1] = 0b01010101;
  for (SeriesId i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree.Insert(MakeEntry(sax, i)).ok());
  }
  tree.SealRoots();
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const TreeStats stats = tree.Collect();
  EXPECT_EQ(stats.total_entries, 20u);
  EXPECT_EQ(stats.oversized_leaves, 1u);
}

TEST(TreeTest, SplitPrefersBalancedSegment) {
  // Segment 0: all entries share the next bit (unbalanced split).
  // Segment 1: entries split 3/3 (perfectly balanced) -> must be chosen.
  const SaxTreeOptions options = SmallOptions(2, 5);
  SaxTree tree(options);
  std::vector<LeafEntry> entries;
  for (int i = 0; i < 6; ++i) {
    SaxSymbols sax;
    sax.symbols[0] = 0b00000000;  // next bit always 0
    sax.symbols[1] = i < 3 ? 0b00000000 : 0b01000000;  // next bit 0/1
    entries.push_back(MakeEntry(sax, i));
  }
  for (const LeafEntry& e : entries) ASSERT_TRUE(tree.Insert(e).ok());
  tree.SealRoots();
  Node* root = tree.RootAt(0);
  ASSERT_NE(root, nullptr);
  ASSERT_FALSE(root->IsLeaf());
  EXPECT_EQ(root->split_segment(), 1);
  EXPECT_EQ(root->child(0)->LeafSize(), 3u);
  EXPECT_EQ(root->child(1)->LeafSize(), 3u);
}

TEST(TreeTest, CascadingSplitWhenAllEntriesShareOneSide) {
  // All entries agree on the first few refinement bits of every segment,
  // forcing repeated splits until a separating bit is found.
  const SaxTreeOptions options = SmallOptions(1, 1);
  SaxTree tree(options);
  SaxSymbols a, b;
  a.symbols[0] = 0b10000000;
  b.symbols[0] = 0b10000001;  // differs only in the last bit
  ASSERT_TRUE(tree.Insert(MakeEntry(a, 0)).ok());
  ASSERT_TRUE(tree.Insert(MakeEntry(b, 1)).ok());
  tree.SealRoots();
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const TreeStats stats = tree.Collect();
  EXPECT_EQ(stats.total_entries, 2u);
  // 7 cascading splits were needed to separate the last bit.
  EXPECT_EQ(stats.max_depth, 8u);
  EXPECT_EQ(stats.oversized_leaves, 0u);
}

TEST(TreeTest, ApproximateLeafDescendsToMatchingRegion) {
  GeneratorOptions gen;
  gen.count = 1000;
  gen.length = 64;
  gen.seed = 37;
  const Dataset data = GenerateDataset(gen);
  const SaxTreeOptions options = SmallOptions(8, 8);
  SaxTree tree(options);
  const auto entries = EntriesFromDataset(data, options.segments);
  for (const LeafEntry& e : entries) ASSERT_TRUE(tree.Insert(e).ok());
  tree.SealRoots();

  // For an indexed series, the approximate leaf must contain it.
  float paa[kMaxSegments];
  for (SeriesId i = 0; i < 50; ++i) {
    ComputePaa(data.series(i), options.segments, paa);
    Node* leaf = tree.ApproximateLeaf(entries[i].sax, paa);
    ASSERT_NE(leaf, nullptr);
    bool found = false;
    for (const LeafEntry& le : leaf->entries()) found |= le.id == i;
    EXPECT_TRUE(found) << "series " << i;
  }
}

TEST(TreeTest, ApproximateLeafFallsBackToNearestRoot) {
  const SaxTreeOptions options = SmallOptions(2, 4);
  SaxTree tree(options);
  // Only root 0b11 exists (both segments high).
  SaxSymbols high;
  high.symbols[0] = 0b11000000;
  high.symbols[1] = 0b11000000;
  ASSERT_TRUE(tree.Insert(MakeEntry(high, 0)).ok());
  tree.SealRoots();

  // Query in region 0b00: exact root child missing -> fallback.
  SaxSymbols low;
  low.symbols[0] = 0;
  low.symbols[1] = 0;
  float paa[2] = {-2.0f, -2.0f};
  Node* leaf = tree.ApproximateLeaf(low, paa);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->LeafSize(), 1u);
}

TEST(TreeTest, EmptyTreeBehaviour) {
  SaxTree tree(SmallOptions());
  tree.SealRoots();
  EXPECT_TRUE(tree.PresentRoots().empty());
  SaxSymbols sax;
  float paa[4] = {0, 0, 0, 0};
  EXPECT_EQ(tree.ApproximateLeaf(sax, paa), nullptr);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const TreeStats stats = tree.Collect();
  EXPECT_EQ(stats.total_entries, 0u);
  EXPECT_EQ(stats.leaves, 0u);
}

TEST(TreeTest, SealRootsIsSortedAndComplete) {
  const SaxTreeOptions options = SmallOptions(4, 4);
  SaxTree tree(options);
  Rng rng(41);
  std::set<uint32_t> expected;
  for (int i = 0; i < 200; ++i) {
    SaxSymbols sax;
    for (int s = 0; s < options.segments; ++s) {
      sax.symbols[s] = static_cast<uint8_t>(rng.NextU64() & 0xff);
    }
    expected.insert(RootKey(sax, options.segments));
    ASSERT_TRUE(tree.Insert(MakeEntry(sax, i)).ok());
  }
  tree.SealRoots();
  const auto& present = tree.PresentRoots();
  ASSERT_EQ(present.size(), expected.size());
  size_t idx = 0;
  for (const uint32_t key : expected) {
    EXPECT_EQ(present[idx++], key);  // std::set iterates ascending
  }
}

/// The directory lists every leaf of `tree` exactly once, each with its
/// node's word.
void ExpectDirectoryListsEveryLeaf(const SaxTree& tree) {
  std::map<const Node*, int> seen;
  tree.VisitLeaves(nullptr, [&](Node* leaf) { seen[leaf] = 0; });
  const std::vector<LeafDirEntry>& dir = tree.LeafDirectory();
  ASSERT_EQ(dir.size(), seen.size());
  for (const LeafDirEntry& entry : dir) {
    auto it = seen.find(entry.leaf);
    ASSERT_NE(it, seen.end()) << "directory names a node that is no leaf";
    EXPECT_EQ(++it->second, 1) << "leaf listed twice";
    const SaxWord& word = entry.leaf->word();
    EXPECT_EQ(std::memcmp(&entry.word, &word, sizeof(SaxWord)), 0)
        << entry.word.ToString(tree.options().segments);
  }
}

std::vector<LeafEntry> RandomWalkEntries(size_t count, int w,
                                         uint64_t seed) {
  GeneratorOptions gen;
  gen.count = count;
  gen.length = 64;
  gen.seed = seed;
  return EntriesFromDataset(GenerateDataset(gen), w);
}

TEST(TreeDirectoryTest, ListsEveryLeafAfterInsert) {
  SaxTree tree(SmallOptions(4, 4));
  tree.SealRoots();
  EXPECT_TRUE(tree.LeafDirectory().empty());
  for (const LeafEntry& e : RandomWalkEntries(1500, 4, 17)) {
    ASSERT_TRUE(tree.Insert(e).ok());
  }
  tree.SealRoots();
  ASSERT_GT(tree.Collect().inner_nodes, 0u);
  ExpectDirectoryListsEveryLeaf(tree);
  // Sealing again rebuilds rather than appends.
  tree.SealRoots();
  ExpectDirectoryListsEveryLeaf(tree);
}

TEST(TreeDirectoryTest, ListsEveryLeafAfterRecreateRoot) {
  const SaxTreeOptions options = SmallOptions(4, 4);
  SaxTree tree(options);
  const std::vector<LeafEntry> entries = RandomWalkEntries(1500, 4, 19);
  for (const LeafEntry& e : entries) ASSERT_TRUE(tree.Insert(e).ok());
  tree.SealRoots();
  // Restore one populated root subtree wholesale, as delta-snapshot
  // replay does, with only half of its entries.
  const uint32_t key = tree.PresentRoots().front();
  Node* root = tree.RecreateRoot(key);
  bool keep = true;
  for (const LeafEntry& e : entries) {
    if (RootKey(e.sax, options.segments) != key) continue;
    if (keep) {
      ASSERT_TRUE(tree.InsertIntoSubtree(root, e).ok());
    }
    keep = !keep;
  }
  tree.SealRoots();
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ExpectDirectoryListsEveryLeaf(tree);
}

TEST(TreeDirectoryTest, ListsEveryLeafOfSegmentAndFoldTrees) {
  const SaxTreeOptions options = SmallOptions(4, 8);
  InlineExecutor exec;
  GeneratorOptions gen;
  gen.count = 700;
  gen.length = options.series_length;
  gen.seed = 23;
  const Dataset first = GenerateDataset(gen);
  gen.seed = 29;
  const Dataset second = GenerateDataset(gen);

  auto a = BuildSegment(first.raw(), first.count(), 0, options,
                        /*with_sax_rows=*/false, &exec);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = BuildSegment(second.raw(), second.count(), first.count(),
                        options, /*with_sax_rows=*/false, &exec);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectDirectoryListsEveryLeaf((*a)->tree);
  ExpectDirectoryListsEveryLeaf((*b)->tree);

  auto merged = MergeSegments({*a, *b}, options, &exec);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectDirectoryListsEveryLeaf((*merged)->tree);

  std::vector<LeafEntry> entries;
  ASSERT_TRUE(CollectTreeEntries((*a)->tree, nullptr, &entries).ok());
  ASSERT_TRUE(CollectTreeEntries((*b)->tree, nullptr, &entries).ok());
  SaxTree folded(options);
  ASSERT_TRUE(BuildTreeFromEntries(&folded, entries, &exec).ok());
  ExpectDirectoryListsEveryLeaf(folded);
  EXPECT_EQ(folded.Collect().total_entries, first.count() + second.count());
}

}  // namespace
}  // namespace parisax
