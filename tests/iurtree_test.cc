#include "rst/iurtree/iurtree.h"

#include <gtest/gtest.h>

#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/iurtree/cluster.h"
#include "rst/topk/topk.h"

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
  // publish point: storage finalized, payloads serialized, handles valid.
  const IurTree empty = IurTree::Build({}, {});
  EXPECT_TRUE(empty.storage_finalized());

  for (size_t n : {1u, 5u, 32u, 33u, 200u}) {
    const Dataset d = SmallDataset(n, 40 + n);
    const IurTree tree = IurTree::BuildFromDataset(d, {});
    EXPECT_TRUE(tree.storage_finalized()) << "n=" << n;
    EXPECT_GT(tree.IndexBytes(), 0u) << "n=" << n;
    EXPECT_TRUE(tree.root()->record_handle.valid()) << "n=" << n;
    EXPECT_TRUE(tree.root()->invfile_handle.valid()) << "n=" << n;
  }
}

TEST(IurTreeTest, ParallelBuildIsDeterministic) {
  const Dataset d = SmallDataset(900, 3);
  IurTreeOptions serial;
  IurTreeOptions threaded;
  threaded.build_threads = 4;
  const IurTree a = IurTree::BuildFromDataset(d, serial);
  const IurTree b = IurTree::BuildFromDataset(d, threaded);
  EXPECT_TRUE(b.CheckInvariants(DocLookup(d)).ok());
  // Identical structure ⇒ identical serialized payload stream.
  EXPECT_EQ(a.NodeCount(), b.NodeCount());
  EXPECT_EQ(a.height(), b.height());
  EXPECT_EQ(a.IndexBytes(), b.IndexBytes());
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

TEST(IurTreeTest, DynamicInsertMatchesInvariants) {
  const Dataset d = SmallDataset(400);
  IurTreeOptions options;
  IurTree tree = IurTree::Build({}, options);
  for (const StObject& obj : d.objects()) {
    tree.Insert(obj.id, obj.loc, &obj.doc);
  }
  EXPECT_EQ(tree.size(), 400u);
  const Status s = tree.CheckInvariants(DocLookup(d));
  EXPECT_TRUE(s.ok()) << s.ToString();
  tree.FinalizeStorage();
  EXPECT_GT(tree.IndexBytes(), 0u);
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
  const TextSummary query = TextSummary::FromDoc(d.object(3).doc);

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
  const TextSummary query = TextSummary::FromDoc(qdoc);

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

TEST(IurTreeTest, StorageAccountingCharges) {
  const Dataset d = SmallDataset(300);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  EXPECT_GT(tree.IndexBytes(), 0u);
  EXPECT_GT(tree.page_store().num_pages(), 0u);
  IoStats stats;
  tree.ChargeAccess(tree.root(), &stats);
  EXPECT_EQ(stats.node_reads, 1u);
  EXPECT_GE(stats.payload_blocks, 1u);
}

TEST(IurTreeTest, StoredInvertedFileDecodesAndMatchesSummaries) {
  const Dataset d = SmallDataset(200);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  const IurTree::Node* root = tree.root();
  std::string payload;
  ASSERT_TRUE(
      tree.page_store().Read(root->invfile_handle, &payload, nullptr).ok());
  size_t offset = 0;
  InvertedFile file;
  ASSERT_TRUE(DecodeInvertedFile(payload, &offset, &file).ok());
  // Every posting's (max,min) must match the in-memory entry summaries.
  for (const auto& [term, postings] : file) {
    for (const Posting& p : postings) {
      ASSERT_LT(p.id, root->entries.size());
      const IurTree::Entry& e = root->entries[p.id];
      EXPECT_FLOAT_EQ(p.max_weight, e.summary.uni.Get(term));
      EXPECT_FLOAT_EQ(p.min_weight, e.summary.intr.Get(term));
    }
  }
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

TEST(IurTreeTest, DeleteMaintainsInvariants) {
  const Dataset d = SmallDataset(500, 41);
  IurTree tree = IurTree::BuildFromDataset(d, {});
  Rng rng(42);
  std::vector<ObjectId> order(d.size());
  for (size_t i = 0; i < d.size(); ++i) order[i] = static_cast<ObjectId>(i);
  rng.Shuffle(&order);
  std::vector<bool> deleted(d.size(), false);
  size_t remaining = d.size();
  for (size_t step = 0; step < 400; ++step) {
    const ObjectId id = order[step];
    ASSERT_TRUE(tree.Delete(id, d.object(id).loc).ok()) << "id=" << id;
    deleted[id] = true;
    --remaining;
    ASSERT_EQ(tree.size(), remaining);
    if (step % 80 == 0) {
      const Status s = tree.CheckInvariants([&](uint32_t oid) {
        return oid < d.size() && !deleted[oid] ? &d.object(oid).doc : nullptr;
      });
      ASSERT_TRUE(s.ok()) << "step=" << step << " " << s.ToString();
    }
  }
  // Deleting something twice (or a wrong location) fails cleanly.
  EXPECT_EQ(tree.Delete(order[0], d.object(order[0]).loc).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(tree.Delete(order[400], Point{-1, -1}).code(),
            StatusCode::kNotFound);
}

TEST(IurTreeTest, DeleteThenQueryStaysExact) {
  const Dataset d = SmallDataset(400, 43);
  IurTree tree = IurTree::BuildFromDataset(d, {});
  // Remove 100 objects, then verify top-k over the survivors matches a
  // brute-force scan restricted to the survivors.
  std::vector<bool> alive(d.size(), true);
  Rng rng(44);
  for (int i = 0; i < 100; ++i) {
    ObjectId id;
    do {
      id = static_cast<ObjectId>(rng.UniformInt(uint64_t{d.size()}));
    } while (!alive[id]);
    ASSERT_TRUE(tree.Delete(id, d.object(id).loc).ok());
    alive[id] = false;
  }
  tree.FinalizeStorage();
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  const StObject& q = d.object(7);
  TopKQuery query{q.loc, &q.doc, 10, IurTree::kNoObject};
  const auto got = searcher.Search(query);
  std::vector<TopKResult> expected;
  for (const StObject& o : d.objects()) {
    if (!alive[o.id]) continue;
    expected.push_back({o.id, scorer.Score(o.loc, o.doc, q.loc, q.doc)});
  }
  std::sort(expected.begin(), expected.end(),
            [](const TopKResult& a, const TopKResult& b) {
              return a.score > b.score || (a.score == b.score && a.id < b.id);
            });
  expected.resize(10);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id) << "pos " << i;
  }
}

TEST(IurTreeTest, DeleteDownToEmpty) {
  const Dataset d = SmallDataset(40, 45);
  IurTree tree = IurTree::BuildFromDataset(d, {});
  for (const StObject& o : d.objects()) {
    ASSERT_TRUE(tree.Delete(o.id, o.loc).ok());
  }
  EXPECT_EQ(tree.size(), 0u);
  // And it can be refilled.
  for (const StObject& o : d.objects()) {
    tree.Insert(o.id, o.loc, &o.doc);
  }
  EXPECT_EQ(tree.size(), 40u);
  EXPECT_TRUE(tree.CheckInvariants(DocLookup(d)).ok());
}

}  // namespace
}  // namespace rst
