#include "rst/frozen/frozen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/data/generators.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<uint32_t> cluster_of;
  IurTree tree;
  TextSimilarity sim;
  StScorer scorer;

  explicit Fixture(size_t n, bool clustered = false, uint64_t seed = 7)
      : tree(IurTree::Build({}, {})), sim(TextMeasure::kExtendedJaccard),
        scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = n;
    config.vocab_size = 200;
    config.seed = seed;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    if (clustered) {
      std::vector<TermVector> docs;
      for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
      ClusteringOptions copts;
      copts.num_clusters = 6;
      copts.outlier_threshold = 0.1;
      cluster_of = ClusterDocuments(docs, copts).assignment;
    }
    IurTreeOptions topts;
    topts.max_entries = 8;
    tree = IurTree::BuildFromDataset(dataset, topts,
                                     clustered ? &cluster_of : nullptr);
    scorer = StScorer(&sim, {0.5, dataset.max_dist()});
  }
};

void ExpectStatsEqual(const RstknnStats& a, const RstknnStats& b) {
  EXPECT_EQ(a.io.node_reads, b.io.node_reads);
  EXPECT_EQ(a.io.payload_blocks, b.io.payload_blocks);
  EXPECT_EQ(a.io.payload_bytes, b.io.payload_bytes);
  EXPECT_EQ(a.entries_created, b.entries_created);
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.pruned_entries, b.pruned_entries);
  EXPECT_EQ(a.reported_entries, b.reported_entries);
  EXPECT_EQ(a.bound_computations, b.bound_computations);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.pq_pops, b.pq_pops);
}

// ---------------------------------------------------------------------------
// Structural equivalence of the frozen layout

/// The frozen layout is the stack preorder of the source tree: a popped
/// node's entries take consecutive indices, its child nodes are visited in
/// entry order, and entry index + 1 is the explain id. The walk below is the
/// reference the layout is checked against, entry by entry.
TEST(FrozenTreeTest, LayoutIsPreorderOfSourceTree) {
  const Fixture f(300, /*clustered=*/true);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  ASSERT_TRUE(frozen.CheckInvariants().ok())
      << frozen.CheckInvariants().ToString();
  EXPECT_EQ(frozen.size(), f.tree.size());
  EXPECT_TRUE(frozen.clustered());
  EXPECT_EQ(frozen.num_nodes(), f.tree.NodeCount());

  struct Frame {
    const IurTree::Node* node;
    uint32_t level;
  };
  std::vector<Frame> stack{{f.tree.root(), 0}};
  std::map<const IurTree::Node*, uint32_t> first_entry;  // node -> index
  std::vector<std::pair<uint32_t, const IurTree::Node*>> child_links;
  uint32_t e = 0;  // the next entry index in preorder
  size_t objects = 0;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const auto& entries = frame.node->entries;
    first_entry[frame.node] = e;
    // Children pushed in reverse so they pop in entry order.
    for (size_t i = entries.size(); i-- > 0;) {
      if (!entries[i].is_object()) {
        stack.push_back({entries[i].child, frame.level + 1});
      }
    }
    for (const IurTree::Entry& entry : entries) {
      ASSERT_LT(e, frozen.num_entries());
      EXPECT_EQ(frozen.EntryLevel(e), frame.level);
      EXPECT_EQ(frozen.EntryRect(e).min_x, entry.rect.min_x);
      EXPECT_EQ(frozen.EntryRect(e).max_y, entry.rect.max_y);
      EXPECT_EQ(frozen.IsObject(e), entry.is_object());
      EXPECT_EQ(frozen.Count(e), entry.count());
      if (entry.is_object()) {
        EXPECT_EQ(frozen.ObjectIdOf(e), entry.id);
        ++objects;
      } else {
        child_links.emplace_back(e, entry.child);
      }
      // Summaries must be the same term-by-term data (shared span kernels
      // then guarantee bit-identical bounds).
      const SummarySpan ps = AsSpan(entry.summary);
      const SummarySpan fs = frozen.Summary(e);
      ASSERT_EQ(fs.uni.len, ps.uni.len);
      ASSERT_EQ(fs.intr.len, ps.intr.len);
      EXPECT_EQ(fs.uni.norm_squared, ps.uni.norm_squared);
      for (uint32_t t = 0; t < fs.uni.len; ++t) {
        EXPECT_EQ(fs.uni.data[t].term, ps.uni.data[t].term);
        EXPECT_EQ(fs.uni.data[t].weight, ps.uni.data[t].weight);
      }
      ASSERT_EQ(frozen.NumClusters(e), entry.clusters.size());
      for (uint32_t c = 0; c < frozen.NumClusters(e); ++c) {
        EXPECT_EQ(frozen.ClusterId(e, c), entry.clusters[c].first);
        EXPECT_EQ(frozen.ClusterCount(e, c), entry.clusters[c].second.count);
      }
      ++e;
    }
  }
  EXPECT_EQ(e, frozen.num_entries());
  EXPECT_EQ(objects, f.tree.size());
  // Node topology: every child link lands on the node whose entries the
  // walk numbered from that node's pop.
  EXPECT_EQ(frozen.EntryBegin(frozen.root()), 0u);
  for (const auto& [entry, child] : child_links) {
    const uint32_t node = frozen.Child(entry);
    EXPECT_EQ(frozen.EntryBegin(node), first_entry.at(child));
    EXPECT_EQ(frozen.EntryCount(node), child->entries.size());
    EXPECT_EQ(frozen.IsLeaf(node), child->leaf);
  }
}

/// Checks every node of `frozen` against the source node the layout walk
/// numbered it from (the same stack preorder): opening them charges the same
/// inverted-file length and the same I/O.
void ExpectLengthsMatch(const IurTree& tree,
                        const frozen::FrozenTree& frozen) {
  EXPECT_EQ(frozen.IndexBytes(), tree.IndexBytes());
  std::vector<const IurTree::Node*> stack{tree.root()};
  uint32_t node = 0;
  while (!stack.empty()) {
    const IurTree::Node* src = stack.back();
    stack.pop_back();
    for (size_t i = src->entries.size(); i-- > 0;) {
      if (!src->entries[i].is_object()) stack.push_back(src->entries[i].child);
    }
    ASSERT_LT(node, frozen.num_nodes());
    IoStats src_charge;
    IoStats frz_charge;
    tree.ChargeAccess(src, &src_charge);
    frozen.ChargeAccess(node, &frz_charge);
    EXPECT_EQ(src_charge.payload_bytes, src->invfile_bytes) << "node " << node;
    EXPECT_EQ(frz_charge.payload_bytes, src->invfile_bytes) << "node " << node;
    EXPECT_EQ(frz_charge.TotalIos(), src_charge.TotalIos()) << "node " << node;
    ++node;
  }
  EXPECT_EQ(node, frozen.num_nodes());
}

TEST(FrozenTreeTest, NodeLengthsMatchSourceTreeAndSurviveSaveLoad) {
  // Freeze copies every node's lengths from the source tree; Load measures
  // them again from the snapshot's arrays. Both must give the source tree's
  // lengths node for node, IUR and CIUR.
  for (const bool clustered : {false, true}) {
    SCOPED_TRACE(clustered ? "CIUR" : "IUR");
    const Fixture f(250, clustered);
    const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
    ExpectLengthsMatch(f.tree, frozen);

    const std::string path =
        ::testing::TempDir() + "/frozen_payload_equality_test.rstf";
    ASSERT_TRUE(frozen.Save(path).ok());
    const Result<frozen::FrozenTree> loaded = frozen::FrozenTree::Load(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectLengthsMatch(f.tree, loaded.value());
  }
}

// ---------------------------------------------------------------------------
// Build -> freeze -> search matrix: {IUR, CIUR} × {probe, contribution-list}
// × α ∈ {0, 0.1, 0.5, 0.9, 1}. Every case answers exactly like the
// brute-force oracle, and its EXPLAIN records and heatmap reconcile with its
// stats.

struct MatrixCase {
  RstknnAlgorithm algorithm;
  bool clustered;
  double alpha;
};

class FrozenSearchMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(FrozenSearchMatrixTest, MatchesOracleAndReconciles) {
  const MatrixCase param = GetParam();
  const Fixture f(300, param.clustered);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  const StScorer scorer(&f.sim, {param.alpha, f.dataset.max_dist()});
  const RstknnSearcher searcher(&frozen, &f.dataset, &scorer);

  // Three dataset objects plus an external query object.
  std::vector<RstknnQuery> queries;
  for (ObjectId qid : {ObjectId{3}, ObjectId{123}, ObjectId{222}}) {
    const StObject& qobj = f.dataset.object(qid);
    queries.push_back({qobj.loc, &qobj.doc, 8, qid});
  }
  const TermVector external_doc =
      TermVector::FromUnsorted({{1, 0.7f}, {9, 1.1f}, {40, 0.3f}});
  queries.push_back(
      {f.dataset.bounds().Center(), &external_doc, 8, IurTree::kNoObject});

  RstknnOptions options;
  options.algorithm = param.algorithm;
  options.publish_metrics = false;
  obs::ExplainRecorder explain;
  obs::HeatmapRecorder heatmap;
  options.explain = &explain;
  options.heatmap = &heatmap;
  RstknnStats total;
  for (const RstknnQuery& query : queries) {
    SCOPED_TRACE("self=" + std::to_string(query.self));
    const RstknnResult result = searcher.Search(query, options);
    EXPECT_EQ(result.answers, BruteForceRstknn(f.dataset, scorer, query));
    const Status reconciled = explain.CheckReconciles(
        result.stats.expansions, result.stats.pruned_entries,
        result.stats.reported_entries);
    EXPECT_TRUE(reconciled.ok()) << reconciled.ToString();
    total.Merge(result.stats);
  }
  heatmap.AddQueries(queries.size());
  const Status reconciled = heatmap.CheckReconciles(
      total.expansions, total.pruned_entries, total.reported_entries);
  EXPECT_TRUE(reconciled.ok()) << reconciled.ToString();
}

std::vector<MatrixCase> MatrixCases() {
  std::vector<MatrixCase> cases;
  for (const RstknnAlgorithm algorithm :
       {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
    for (const bool clustered : {false, true}) {
      for (const double alpha : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        cases.push_back({algorithm, clustered, alpha});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FrozenSearchMatrixTest, ::testing::ValuesIn(MatrixCases()),
    [](const auto& info) {
      return std::string(info.param.algorithm == RstknnAlgorithm::kProbe
                             ? "probe"
                             : "cl") +
             (info.param.clustered ? "_ciur" : "_iur") + "_a" +
             std::to_string(static_cast<int>(info.param.alpha * 10));
    });

// ---------------------------------------------------------------------------
// Persistence

TEST(FrozenSerializationTest, RoundTripIsExact) {
  const Fixture f(200, /*clustered=*/true);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  const std::string bytes = frozen.SerializeToString();

  Result<frozen::FrozenTree> loaded = frozen::FrozenTree::Deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const frozen::FrozenTree& copy = loaded.value();
  EXPECT_TRUE(copy.CheckInvariants().ok());
  EXPECT_EQ(copy.num_nodes(), frozen.num_nodes());
  EXPECT_EQ(copy.num_entries(), frozen.num_entries());
  EXPECT_EQ(copy.size(), frozen.size());
  EXPECT_EQ(copy.clustered(), frozen.clustered());
  // Payload measurement and norm recomputation are deterministic, so a
  // second serialization is byte-identical and the index size matches.
  EXPECT_EQ(copy.SerializeToString(), bytes);
  EXPECT_EQ(copy.IndexBytes(), frozen.IndexBytes());

  // The reloaded snapshot answers queries identically to the original.
  const RstknnSearcher frozen_search(&frozen, &f.dataset, &f.scorer);
  const RstknnSearcher loaded_search(&copy, &f.dataset, &f.scorer);
  const StObject& qobj = f.dataset.object(42);
  const RstknnQuery query{qobj.loc, &qobj.doc, 6, 42};
  RstknnOptions options;
  options.publish_metrics = false;
  const RstknnResult a = frozen_search.Search(query, options);
  const RstknnResult b = loaded_search.Search(query, options);
  EXPECT_EQ(a.answers, b.answers);
  ExpectStatsEqual(a.stats, b.stats);
}

TEST(FrozenSerializationTest, SaveLoadRoundTrip) {
  const Fixture f(120);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  const std::string path =
      ::testing::TempDir() + "/frozen_save_load_test.rstf";
  ASSERT_TRUE(frozen.Save(path).ok());
  Result<frozen::FrozenTree> loaded = frozen::FrozenTree::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().SerializeToString(), frozen.SerializeToString());
  std::remove(path.c_str());
}

TEST(FrozenSerializationTest, CorruptInputsReturnStatusNeverCrash) {
  const Fixture f(150, /*clustered=*/true);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  const std::string bytes = frozen.SerializeToString();

  // Truncation at every interesting prefix length: must error, not crash.
  for (const size_t len :
       {size_t{0}, size_t{3}, size_t{4}, size_t{11}, size_t{12}, size_t{40},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    const Result<frozen::FrozenTree> r =
        frozen::FrozenTree::Deserialize(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncated to " << len << " bytes";
  }

  // Wrong magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(frozen::FrozenTree::Deserialize(bad_magic).ok());

  // Any flipped byte breaks the checksum.
  std::string flipped = bytes;
  flipped[bytes.size() / 3] ^= 0x40;
  const Result<frozen::FrozenTree> r = frozen::FrozenTree::Deserialize(flipped);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("checksum"), std::string::npos);

  // Trailing garbage past the checksum.
  EXPECT_FALSE(frozen::FrozenTree::Deserialize(bytes + "garbage").ok());

  // An unsupported version is rejected even with a valid checksum (the
  // version byte sits right after the 4-byte magic; re-stamp the FNV-1a
  // checksum so version rejection — not the checksum — is what fires).
  std::string future = bytes;
  future[4] = static_cast<char>(frozen::FrozenTree::kFormatVersion + 1);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i + 8 < future.size(); ++i) {
    h ^= static_cast<uint8_t>(future[i]);
    h *= 1099511628211ULL;
  }
  for (int b = 0; b < 8; ++b) {
    future[future.size() - 8 + b] = static_cast<char>((h >> (8 * b)) & 0xFF);
  }
  const Result<frozen::FrozenTree> v = frozen::FrozenTree::Deserialize(future);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().ToString().find("version"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Edge cases

TEST(FrozenTreeTest, EmptyAndSingleLeafTrees) {
  // Empty tree: one empty root node, zero entries; searching returns
  // nothing; serialization round-trips.
  const IurTree empty = IurTree::Build({}, {});
  const frozen::FrozenTree frozen_empty = frozen::FrozenTree::Freeze(empty);
  EXPECT_EQ(frozen_empty.num_nodes(), 1u);
  EXPECT_EQ(frozen_empty.num_entries(), 0u);
  EXPECT_TRUE(frozen_empty.CheckInvariants().ok());
  const Result<frozen::FrozenTree> rt =
      frozen::FrozenTree::Deserialize(frozen_empty.SerializeToString());
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt.value().num_entries(), 0u);

  // A dataset that fits one leaf (≤ max_entries) exercises the small-input
  // build path, which must measure storage exactly like the full path.
  const Fixture f(6);
  EXPECT_GT(f.tree.root()->invfile_bytes, 0u);
  EXPECT_GT(f.tree.IndexBytes(), 0u);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  EXPECT_EQ(frozen.num_entries(), 6u);
  EXPECT_TRUE(frozen.CheckInvariants().ok());
  const RstknnSearcher frozen_search(&frozen, &f.dataset, &f.scorer);
  const StObject& qobj = f.dataset.object(2);
  const RstknnQuery query{qobj.loc, &qobj.doc, 3, 2};
  RstknnOptions options;
  options.publish_metrics = false;
  EXPECT_EQ(frozen_search.Search(query, options).answers,
            BruteForceRstknn(f.dataset, f.scorer, query));
}

TEST(FrozenTreeTest, CheckMatchesDatasetRejectsAForeignSnapshot) {
  const Fixture f(40);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  EXPECT_TRUE(frozen.CheckMatchesDataset(f.dataset).ok());
  EXPECT_EQ(frozen.CheckMatchesDataset(Fixture(39).dataset).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(frozen.CheckMatchesDataset(Fixture(41).dataset).code(),
            StatusCode::kInvalidArgument);

  // The right object count with every id past the dataset's end: the id
  // guard rejects it before any object is read by id.
  std::vector<IurTree::Item> items;
  for (const StObject& o : f.dataset.objects()) {
    items.push_back({o.id + 40, o.loc, &o.doc});
  }
  const frozen::FrozenTree shifted =
      frozen::FrozenTree::Freeze(IurTree::Build(std::move(items), {}));
  Status status = shifted.CheckMatchesDataset(f.dataset);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("object id"), std::string::npos)
      << status.ToString();

  // The same size and ids, but another dataset: every object's location and
  // document differ, so the snapshot would answer for the wrong objects.
  const Fixture other(40, /*clustered=*/false, /*seed=*/8);
  status = frozen.CheckMatchesDataset(other.dataset);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("location or document"), std::string::npos)
      << status.ToString();

  // One object moved, or one document changed, is enough.
  std::vector<IurTree::Item> moved;
  TermVector doc = f.dataset.object(7).doc;
  for (const StObject& o : f.dataset.objects()) {
    moved.push_back({o.id, o.loc, &o.doc});
  }
  moved[3].loc.x += 1e-9;
  EXPECT_FALSE(frozen::FrozenTree::Freeze(IurTree::Build(moved, {}))
                   .CheckMatchesDataset(f.dataset)
                   .ok());
  moved[3].loc = f.dataset.object(3).loc;
  doc = TermVector::FromSorted(
      {{doc.entries().front().term, doc.entries().front().weight + 1.0f}});
  moved[7].doc = &doc;
  EXPECT_FALSE(frozen::FrozenTree::Freeze(IurTree::Build(moved, {}))
                   .CheckMatchesDataset(f.dataset)
                   .ok());
  moved[7].doc = &f.dataset.object(7).doc;
  EXPECT_TRUE(frozen::FrozenTree::Freeze(IurTree::Build(moved, {}))
                  .CheckMatchesDataset(f.dataset)
                  .ok());
}

}  // namespace
}  // namespace rst
