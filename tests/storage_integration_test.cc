// Storage-path integration: the lengths a frozen index keeps per node are
// the size function's lengths for that node, and opening every node charges
// exactly those lengths.

#include <gtest/gtest.h>

#include <vector>

#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/iurtree/iurtree.h"
#include "rst/storage/node_size.h"

namespace rst {
namespace {

/// Measures frozen node `node` from its public entry and cluster views.
NodeSizes Measure(const frozen::FrozenTree& tree, uint32_t node) {
  std::vector<SizedEntry> entries;
  std::vector<SizedCluster> clusters;
  const uint32_t begin = tree.EntryBegin(node);
  for (uint32_t e = begin; e < begin + tree.EntryCount(node); ++e) {
    entries.push_back({tree.ObjectIdOf(e), tree.Summary(e),
                       static_cast<uint32_t>(clusters.size()),
                       tree.NumClusters(e)});
    for (uint32_t c = 0; c < tree.NumClusters(e); ++c) {
      clusters.push_back({tree.ClusterId(e, c), tree.ClusterSummary(e, c)});
    }
  }
  return MeasureNode(entries, clusters, tree.clustered());
}

TEST(StorageIntegrationTest, WholeTreeScanChargesMeasuredLengths) {
  FlickrLikeConfig config;
  config.num_objects = 1200;
  config.seed = 5;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 6;
  const std::vector<uint32_t> cluster_of =
      ClusterDocuments(docs, copts).assignment;

  for (const bool clustered : {false, true}) {
    SCOPED_TRACE(clustered ? "CIUR" : "IUR");
    // Freeze copies the source tree's lengths; re-measuring every node from
    // the snapshot's own arrays must give the same lengths, in node order.
    const frozen::FrozenTree tree = frozen::FrozenTree::Freeze(
        IurTree::BuildFromDataset(d, {}, clustered ? &cluster_of : nullptr));
    IoStats expected;
    IoStats charged;
    uint64_t bytes = 0;
    for (uint32_t node = 0; node < tree.num_nodes(); ++node) {
      const NodeSizes sizes = Measure(tree, node);
      expected.AddNodeRead();
      expected.AddPayloadRead(sizes.invfile_bytes);
      bytes += sizes.record_bytes + sizes.invfile_bytes;
      IoStats one;
      tree.ChargeAccess(node, &one);
      EXPECT_EQ(one.payload_bytes, sizes.invfile_bytes) << "node " << node;
      charged += one;
    }
    EXPECT_EQ(charged.node_reads, tree.num_nodes());
    EXPECT_EQ(charged.node_reads, expected.node_reads);
    EXPECT_EQ(charged.payload_blocks, expected.payload_blocks);
    EXPECT_EQ(charged.payload_bytes, expected.payload_bytes);
    EXPECT_EQ(tree.IndexBytes(), bytes);
  }
}

}  // namespace
}  // namespace rst
