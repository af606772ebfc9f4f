#include "rst/iurtree/iurtree.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/storage/node_size.h"

namespace rst {
namespace {

Dataset SmallDataset(size_t n, uint64_t seed = 1) {
  FlickrLikeConfig config;
  config.num_objects = n;
  config.vocab_size = 300;
  config.seed = seed;
  return GenFlickrLike(config, {Weighting::kLanguageModel, 0.1});
}

std::function<const TermVector*(uint32_t)> DocLookup(const Dataset& d) {
  return [&d](uint32_t id) -> const TermVector* {
    return id < d.size() ? &d.object(id).doc : nullptr;
  };
}

TEST(IurTreeTest, BulkLoadInvariants) {
  const Dataset d = SmallDataset(1200);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  EXPECT_EQ(tree.size(), 1200u);
  EXPECT_GE(tree.height(), 1u);
  const Status s = tree.CheckInvariants(DocLookup(d));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(IurTreeTest, DegenerateSizes) {
  for (size_t n : {1u, 2u, 31u, 32u, 33u}) {
    const Dataset d = SmallDataset(n, 7 + n);
    const IurTree tree = IurTree::BuildFromDataset(d, {});
    EXPECT_EQ(tree.size(), n);
    const Status s = tree.CheckInvariants(DocLookup(d));
    EXPECT_TRUE(s.ok()) << "n=" << n << " " << s.ToString();
  }
}

TEST(IurTreeTest, SmallInputsFinalizeStorageLikeTheFullPath) {
  // Every Build path — empty input, a dataset that fits a single leaf
  // (≤ max_entries), and the full STR pack — must flow through the same
  // storage pass: every node measured once, its inverted-file length kept.
  // The index size is exactly the sum of the nodes' lengths: nothing
  // counted twice, no node left out.
  const auto expect_every_node_stored = [](const IurTree& tree,
                                           const std::string& what) {
    size_t nodes = 0;
    uint64_t bytes = 0;
    std::vector<const IurTree::Node*> stack = {tree.root()};
    while (!stack.empty()) {
      const IurTree::Node* node = stack.back();
      stack.pop_back();
      ++nodes;
      std::vector<SizedEntry> entries;
      for (const IurTree::Entry& e : node->entries) {
        entries.push_back({e.id, AsSpan(e.summary), 0, 0});
      }
      const NodeSizes sizes = MeasureNode(entries, {}, false);
      EXPECT_GE(sizes.record_bytes, 2u) << what;
      EXPECT_EQ(node->invfile_bytes, sizes.invfile_bytes) << what;
      bytes += sizes.record_bytes + sizes.invfile_bytes;
      if (!node->leaf) {
        for (const IurTree::Entry& e : node->entries) stack.push_back(e.child);
      }
    }
    EXPECT_EQ(nodes, tree.NodeCount()) << what;
    EXPECT_EQ(tree.IndexBytes(), bytes) << what;
  };
  expect_every_node_stored(IurTree::Build({}, {}), "empty");

  for (size_t n : {1u, 5u, 32u, 33u, 200u}) {
    const Dataset d = SmallDataset(n, 40 + n);
    const IurTree tree = IurTree::BuildFromDataset(d, {});
    EXPECT_GT(tree.IndexBytes(), 0u) << "n=" << n;
    expect_every_node_stored(tree, "n=" + std::to_string(n));
  }
}

TEST(IurTreeTest, PackingDependsOnlyOnLocations) {
  // The STR packing reads only item locations: the same points built with
  // their documents and with empty documents give the same tree shape and
  // the same entry rectangles (and object ids) in frozen preorder, which is
  // what lets the text-less build stand in for a plain R-tree.
  const Dataset d = SmallDataset(700, 5);
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 4;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);
  const TermVector no_text;
  std::vector<IurTree::Item> with_text;
  std::vector<IurTree::Item> without_text;
  for (const StObject& o : d.objects()) {
    with_text.push_back({o.id, o.loc, &o.doc});
    without_text.push_back({o.id, o.loc, &no_text});
  }
  for (const std::vector<uint32_t>* cluster_of :
       {static_cast<const std::vector<uint32_t>*>(nullptr),
        &clusters.assignment}) {
    for (size_t max_entries : {6u, 32u}) {
      const std::string what = std::string(cluster_of ? "ciur" : "iur") +
                               " max_entries=" + std::to_string(max_entries);
      IurTreeOptions options;
      options.max_entries = max_entries;
      const IurTree a = IurTree::Build(with_text, options, cluster_of);
      const IurTree b = IurTree::Build(without_text, options, cluster_of);
      ASSERT_EQ(a.NodeCount(), b.NodeCount()) << what;
      ASSERT_EQ(a.height(), b.height()) << what;
      const frozen::FrozenTree fa = frozen::FrozenTree::Freeze(a);
      const frozen::FrozenTree fb = frozen::FrozenTree::Freeze(b);
      ASSERT_EQ(fa.num_entries(), fb.num_entries()) << what;
      for (uint32_t e = 0; e < fa.num_entries(); ++e) {
        ASSERT_EQ(fa.EntryRect(e), fb.EntryRect(e)) << what << " entry " << e;
        ASSERT_EQ(fa.ObjectIdOf(e), fb.ObjectIdOf(e)) << what << " entry " << e;
      }
    }
  }
}

TEST(IurTreeTest, NodeSummariesBracketSubtreeDocs) {
  const Dataset d = SmallDataset(500);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  // Recursively check: every document under a node obeys
  // intr <= doc <= uni per term (the defining IUR-tree property).
  std::function<void(const IurTree::Node*, const TextSummary*)> check =
      [&](const IurTree::Node* node, const TextSummary* enclosing) {
        for (const IurTree::Entry& e : node->entries) {
          if (enclosing != nullptr) {
            for (const TermWeight& tw : e.summary.uni.entries()) {
              EXPECT_LE(tw.weight, enclosing->uni.Get(tw.term) + 1e-7f);
            }
            for (const TermWeight& tw : enclosing->intr.entries()) {
              EXPECT_GE(e.summary.intr.Get(tw.term), tw.weight - 1e-7f);
            }
          }
          if (!e.is_object()) check(e.child, &e.summary);
        }
      };
  check(tree.root(), nullptr);
}

TEST(IurTreeTest, ClusteredBuildInvariants) {
  const Dataset d = SmallDataset(800);
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 6;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);
  const IurTree tree = IurTree::BuildFromDataset(d, {}, &clusters.assignment);
  EXPECT_TRUE(tree.clustered());
  const Status s = tree.CheckInvariants(DocLookup(d));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(IurTreeTest, ClusteredBoundsAreTighterOrEqual) {
  const Dataset d = SmallDataset(800);
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 8;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);
  const IurTree plain = IurTree::BuildFromDataset(d, {});
  const IurTree ciur = IurTree::BuildFromDataset(d, {}, &clusters.assignment);
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  const TextSummary qsum = TextSummary::FromDoc(d.object(3).doc);
  const PreparedSummary query = sim.Prepare(AsSpan(qsum));

  // Compare bounds on the root children covering the same object sets is not
  // possible node-by-node (tree shapes match: same STR order). Walk both
  // trees in lockstep.
  std::function<void(const IurTree::Node*, const IurTree::Node*)> walk =
      [&](const IurTree::Node* a, const IurTree::Node* b) {
        ASSERT_EQ(a->entries.size(), b->entries.size());
        for (size_t i = 0; i < a->entries.size(); ++i) {
          const TextBounds ba = EntryTextBounds(a->entries[i], query, sim);
          const TextBounds bb = EntryTextBounds(b->entries[i], query, sim);
          EXPECT_LE(ba.min_sim, bb.min_sim + 1e-9);
          EXPECT_GE(ba.max_sim, bb.max_sim - 1e-9);
          if (!a->entries[i].is_object()) {
            walk(a->entries[i].child, b->entries[i].child);
          }
        }
      };
  walk(plain.root(), ciur.root());
}

TEST(IurTreeTest, ClusterAwareBoundsStillBracketTruth) {
  const Dataset d = SmallDataset(600, 17);
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 5;
  copts.outlier_threshold = 0.15;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);
  const IurTree tree = IurTree::BuildFromDataset(d, {}, &clusters.assignment);
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  const TermVector& qdoc = d.object(11).doc;
  const TextSummary qsum = TextSummary::FromDoc(qdoc);
  const PreparedSummary query = sim.Prepare(AsSpan(qsum));

  std::function<void(const IurTree::Node*)> walk = [&](const IurTree::Node*
                                                           node) {
    for (const IurTree::Entry& e : node->entries) {
      const TextBounds b = EntryTextBounds(e, query, sim);
      // Collect subtree docs and verify bracket.
      std::vector<uint32_t> ids;
      std::function<void(const IurTree::Entry&)> collect =
          [&](const IurTree::Entry& entry) {
            if (entry.is_object()) {
              ids.push_back(entry.id);
            } else {
              for (const IurTree::Entry& ce : entry.child->entries) {
                collect(ce);
              }
            }
          };
      collect(e);
      for (uint32_t id : ids) {
        const double s = sim.Sim(d.object(id).doc, qdoc);
        EXPECT_LE(b.min_sim, s + 1e-9);
        EXPECT_GE(b.max_sim, s - 1e-9);
      }
      if (!e.is_object()) walk(e.child);
    }
  };
  walk(tree.root());
}

// EntryTextBounds against a prepared user side equals the one-shot bounds
// of every cluster summary bit-for-bit, for a super-user-like keyword group
// (non-empty intersection, union over many terms) under all three measures.
TEST(IurTreeTest, PreparedEntryBoundsMatchOneShotClusterBounds) {
  const Dataset d = SmallDataset(800, 23);
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 6;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);
  const IurTree ciur = IurTree::BuildFromDataset(d, {}, &clusters.assignment);
  TextSummary group;
  for (ObjectId id : {5u, 40u, 41u, 300u}) {
    std::vector<TermId> terms;
    for (const TermWeight& e : d.object(id).doc.entries()) {
      terms.push_back(e.term);
    }
    terms.push_back(7);  // shared by every user: a required keyword
    group = TextSummary::Merge(
        group, TextSummary::FromDoc(TermVector::FromTerms(terms)));
  }
  ASSERT_FALSE(group.intr.empty());
  for (TextMeasure measure : {TextMeasure::kExtendedJaccard,
                              TextMeasure::kCosine, TextMeasure::kSum}) {
    TextSimilarity sim(measure, &d.corpus_max());
    const PreparedSummary prepared = sim.Prepare(AsSpan(group));
    size_t clustered = 0;
    std::function<void(const IurTree::Node*)> walk =
        [&](const IurTree::Node* node) {
          for (const IurTree::Entry& e : node->entries) {
            TextBounds expected{1.0, 0.0};
            if (e.clusters.empty()) {
              expected = {sim.MinSim(e.summary, group),
                          sim.MaxSim(e.summary, group)};
            } else {
              ++clustered;
              for (const auto& [cluster_id, summary] : e.clusters) {
                expected.min_sim =
                    std::min(expected.min_sim, sim.MinSim(summary, group));
                expected.max_sim =
                    std::max(expected.max_sim, sim.MaxSim(summary, group));
              }
            }
            const TextBounds got = EntryTextBounds(e, prepared, sim);
            EXPECT_EQ(got.min_sim, expected.min_sim) << TextMeasureName(measure);
            EXPECT_EQ(got.max_sim, expected.max_sim) << TextMeasureName(measure);
            if (!e.is_object()) walk(e.child);
          }
        };
    walk(ciur.root());
    EXPECT_GT(clustered, 0u);
  }
}

TEST(IurTreeTest, StorageAccountingCharges) {
  const Dataset d = SmallDataset(300);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  EXPECT_GT(tree.IndexBytes(), 0u);
  IoStats stats;
  tree.ChargeAccess(tree.root(), &stats);
  EXPECT_EQ(stats.node_reads, 1u);
  EXPECT_GE(stats.payload_blocks, 1u);
  EXPECT_EQ(stats.payload_bytes, tree.root()->invfile_bytes);
}

TEST(IurTreeTest, UsersTreeBuilds) {
  const Dataset d = SmallDataset(3000);
  UserGenConfig ucfg;
  ucfg.num_users = 150;
  ucfg.area_extent = 30.0;
  const GeneratedUsers gen = GenUsers(d, ucfg);
  const IurTree user_tree = IurTree::BuildFromUsers(gen.users, {});
  EXPECT_EQ(user_tree.size(), gen.users.size());
  const Status s = user_tree.CheckInvariants(
      [&gen](uint32_t id) -> const TermVector* {
        return id < gen.users.size() ? &gen.users[id].keywords : nullptr;
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Node ownership: the tree owns every node it makes, keeps every one it
// makes, and hands them over intact on a move. The CI sanitizer jobs run
// these under ASan and TSan to shake out lifetime races.

TEST(IurTreeTest, BuildKeepsEveryNodeItMakes) {
  const Dataset d = SmallDataset(500, 11);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  // NodeCount() is the number of nodes the tree owns; the walk counts the
  // reachable ones. Equal: no placeholder root, no orphan.
  size_t reachable = 0;
  std::vector<const IurTree::Node*> stack = {tree.root()};
  while (!stack.empty()) {
    const IurTree::Node* node = stack.back();
    stack.pop_back();
    ++reachable;
    EXPECT_GE(node->entries.capacity(), IurTreeOptions().max_entries);
    if (!node->leaf) {
      for (const IurTree::Entry& e : node->entries) stack.push_back(e.child);
    }
  }
  EXPECT_EQ(reachable, tree.NodeCount());
  const Status s = tree.CheckInvariants(DocLookup(d));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(IurTreeTest, MoveTransfersOwnership) {
  const Dataset d = SmallDataset(200, 12);
  IurTree tree = IurTree::BuildFromDataset(d, {});
  const size_t nodes = tree.NodeCount();
  const IurTree::Node* root = tree.root();

  IurTree moved = std::move(tree);
  EXPECT_EQ(moved.NodeCount(), nodes);
  EXPECT_EQ(moved.size(), 200u);
  EXPECT_EQ(moved.root(), root);  // nodes stay where they were built

  // Move assignment over a live tree must destroy the old tree's nodes.
  IurTree other = IurTree::BuildFromDataset(d, {});
  other = std::move(moved);
  EXPECT_EQ(other.NodeCount(), nodes);
  const Status s = other.CheckInvariants(DocLookup(d));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(IurTreeTest, ParallelBuildAndDestroyStress) {
  // Each thread builds and destroys its own trees; under TSan/ASan this
  // catches any shared state in the build or stale-pointer reuse across
  // trees.
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<Dataset> datasets;
  for (int t = 0; t < kThreads; ++t) {
    datasets.push_back(SmallDataset(300, 100 + static_cast<uint64_t>(t)));
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&datasets, t] {
      const Dataset& d = datasets[static_cast<size_t>(t)];
      for (int round = 0; round < kRounds; ++round) {
        const IurTree tree = IurTree::BuildFromDataset(d, {});
        const Status s = tree.CheckInvariants(DocLookup(d));
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace
}  // namespace rst
