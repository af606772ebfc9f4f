// IurTree::CheckInvariants / FrozenTree::CheckInvariants behavior
// (DESIGN.md §11.2): every tree the builders produce — serial, parallel,
// clustered — validates clean, and each class of hand-injected corruption is
// caught with a message precise enough to name the node, the entry, and the
// violated invariant.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/iurtree/iurtree.h"

namespace rst {
namespace {

Dataset SmallDataset(size_t n, uint64_t seed = 11) {
  FlickrLikeConfig config;
  config.num_objects = n;
  config.vocab_size = 250;
  config.seed = seed;
  return GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
}

std::function<const TermVector*(uint32_t)> DocLookup(const Dataset& d) {
  return [&d](uint32_t id) -> const TermVector* {
    return id < d.size() ? &d.object(id).doc : nullptr;
  };
}

// The checker takes the tree by const ref; corruption tests deliberately
// reach through it to damage one node in place.
IurTree::Node* MutableRoot(const IurTree& tree) {
  return const_cast<IurTree::Node*>(tree.root());
}

// Descends leftmost to a leaf.
IurTree::Node* LeftmostLeaf(IurTree::Node* node) {
  while (!node->leaf) node = node->entries[0].child;
  return node;
}

TEST(IurTreeInvariantsTest, SerialBuildValidates) {
  const Dataset d = SmallDataset(900);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  const Status s = tree.CheckInvariants(DocLookup(d));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(IurTreeInvariantsTest, ClusteredBuildValidates) {
  const Dataset d = SmallDataset(700);
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  const ClusteringResult clusters = ClusterDocuments(docs, {});
  const IurTree tree = IurTree::BuildFromDataset(d, {}, &clusters.assignment);
  ASSERT_TRUE(tree.clustered());
  const Status s = tree.CheckInvariants(DocLookup(d));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(IurTreeInvariantsTest, CatchesStaleMbr) {
  const Dataset d = SmallDataset(900);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  ASSERT_FALSE(tree.root()->leaf);
  MutableRoot(tree)->entries[0].rect.max_x += 1.0;
  const Status s = tree.CheckInvariants(DocLookup(d));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("depth 0, entry 0"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("stale MBR"), std::string::npos) << s.ToString();
}

TEST(IurTreeInvariantsTest, CatchesUndominatedIntersection) {
  const Dataset d = SmallDataset(900);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  IurTree::Entry& e = MutableRoot(tree)->entries[0];
  ASSERT_FALSE(e.summary.uni.empty());
  // Give the intersection a weight the union cannot cover: MinSim would
  // exceed MaxSim and pruning decisions would silently flip.
  const TermWeight first = e.summary.uni.entries()[0];
  e.summary.intr =
      TermVector::FromSorted({{first.term, first.weight * 2 + 1.0f}});
  const Status s = tree.CheckInvariants(DocLookup(d));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("exceeds union weight"), std::string::npos)
      << s.ToString();
}

TEST(IurTreeInvariantsTest, CatchesStaleSummaryCount) {
  const Dataset d = SmallDataset(900);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  ASSERT_FALSE(tree.root()->leaf);
  MutableRoot(tree)->entries[0].summary.count += 1;
  const Status s = tree.CheckInvariants(DocLookup(d));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("summary is not the merge"), std::string::npos)
      << s.ToString();
}

TEST(IurTreeInvariantsTest, CatchesUnknownObjectId) {
  const Dataset d = SmallDataset(900);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  LeftmostLeaf(MutableRoot(tree))->entries[0].id = 0xFEDCBA98u;
  const Status s = tree.CheckInvariants(DocLookup(d));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("unknown object id 4275878552"),
            std::string::npos)
      << s.ToString();
}

TEST(IurTreeInvariantsTest, CatchesLeafSummaryDocumentMismatch) {
  const Dataset d = SmallDataset(900);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  IurTree::Node* leaf = LeftmostLeaf(MutableRoot(tree));
  IurTree::Entry& e = leaf->entries[0];
  // Swap the entry's id for another object's: every summary in the tree
  // stays internally consistent (parent merges still add up), so only the
  // leaf-level summary-vs-document comparison can catch it.
  const uint32_t other = (e.id + 1) % static_cast<uint32_t>(d.size());
  ASSERT_FALSE(d.object(other).doc == d.object(e.id).doc);
  e.id = other;
  const Status s = tree.CheckInvariants(DocLookup(d));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("differs from its document"), std::string::npos)
      << s.ToString();
}

TEST(IurTreeInvariantsTest, CatchesUnsortedClusterList) {
  const Dataset d = SmallDataset(700);
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  const ClusteringResult clusters = ClusterDocuments(docs, {});
  const IurTree tree = IurTree::BuildFromDataset(d, {}, &clusters.assignment);
  IurTree::Entry& e = MutableRoot(tree)->entries[0];
  ASSERT_GE(e.clusters.size(), 2u) << "need >=2 clusters to unsort";
  std::swap(e.clusters[0], e.clusters[1]);
  const Status s = tree.CheckInvariants(DocLookup(d));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("cluster ids not strictly ascending"),
            std::string::npos)
      << s.ToString();
}

TEST(FrozenInvariantsTest, FrozenTreeValidatesAfterFreezeAndRoundTrip) {
  const Dataset d = SmallDataset(800);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  const frozen::FrozenTree ft = frozen::FrozenTree::Freeze(tree);
  Status s = ft.CheckInvariants();
  EXPECT_TRUE(s.ok()) << s.ToString();

  const std::string bytes = ft.SerializeToString();
  Result<frozen::FrozenTree> round = frozen::FrozenTree::Deserialize(bytes);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  s = round.value().CheckInvariants();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Deserialize must never accept bytes that fail the deep check: acceptance
// and validation are one decision. Flip every 97th byte of a valid snapshot
// and require reject-or-coherent for each variant.
TEST(FrozenInvariantsTest, ByteFlippedSnapshotsAreRejectedOrCoherent) {
  const Dataset d = SmallDataset(300);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  const std::string bytes = frozen::FrozenTree::Freeze(tree).SerializeToString();
  size_t accepted = 0;
  size_t rejected = 0;
  for (size_t pos = 0; pos < bytes.size(); pos += 97) {
    for (uint8_t bit : {uint8_t{1}, uint8_t{0x80}}) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ bit);
      Result<frozen::FrozenTree> got = frozen::FrozenTree::Deserialize(mutated);
      if (!got.ok()) {
        ++rejected;
        continue;
      }
      ++accepted;
      const Status s = got.value().CheckInvariants();
      EXPECT_TRUE(s.ok()) << "byte " << pos << " bit flip accepted but "
                          << "incoherent: " << s.ToString();
    }
  }
  // Structural damage (header, offsets, counts) must bounce; flips that land
  // in payload bytes may legitimately decode to a different-but-coherent
  // tree, so only the accepted-implies-coherent property is universal.
  EXPECT_GT(rejected, 0u) << rejected << " rejected, " << accepted
                          << " accepted";
}

}  // namespace
}  // namespace rst
