// Competitor-probe internals (rst/rstknn/search_impl.h): the lazy per-pair
// decision against the eager rule it replaces, an alpha sweep on CIUR trees
// against the brute-force oracle, and one ProbeScratch reused across trees
// and sizes.

#include "rst/rstknn/search_impl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "rst/common/rng.h"
#include "rst/data/dataset.h"
#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace {

using frozen::FrozenTree;
using rstknn_internal::CandPairBounds;
using rstknn_internal::CollectObjectIds;
using rstknn_internal::EntryClusterEntropy;
using rstknn_internal::EntrySide;
using rstknn_internal::PairJudge;
using rstknn_internal::PairVerdict;
using rstknn_internal::SideTextBounds;

constexpr double kAlphas[] = {0.0, 0.1, 0.5, 0.9, 1.0};

/// A Flickr-like dataset and its IUR-tree, or its CIUR-tree when clustered.
struct Corpus {
  Dataset dataset;
  std::vector<uint32_t> cluster_of;
  IurTreeOptions topts;
  IurTree tree;

  Corpus(size_t n, bool clustered, uint64_t seed)
      : tree(IurTree::Build({}, {})) {
    FlickrLikeConfig config;
    config.num_objects = n;
    config.vocab_size = 120;
    config.seed = seed;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    if (clustered) {
      std::vector<TermVector> docs;
      for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
      ClusteringOptions copts;
      copts.num_clusters = 5;
      copts.outlier_threshold = 0.1;
      cluster_of = ClusterDocuments(docs, copts).assignment;
    }
    topts.max_entries = 6;
    tree = IurTree::BuildFromDataset(dataset, topts,
                                     clustered ? &cluster_of : nullptr);
  }

  RstknnQuery SelfQuery(ObjectId id, size_t k) const {
    const StObject& o = dataset.object(id);
    return {o.loc, &o.doc, k, id};
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
// Entry text bounds over the frozen tree

/// Entry-pair text bounds bracket every cross pair of objects below the two
/// entries — including an entry paired with itself (the probes' self term)
/// and CIUR entries, where the bound is the cluster cross product.
TEST(EntryBoundsTest, PairBoundsBracketCrossPairs) {
  const TextSimilarity sim(TextMeasure::kExtendedJaccard);
  for (const bool clustered : {false, true}) {
    const Corpus corpus(300, clustered, 23);
    const FrozenTree frozen = FrozenTree::Freeze(corpus.tree);
    const uint32_t roots = frozen.EntryCount(frozen.root());
    ASSERT_GE(roots, 2u);
    for (uint32_t a = 0; a < roots; ++a) {
      for (uint32_t b = a; b < roots; ++b) {
        const TextBounds bounds = SideTextBounds(
            frozen, EntrySide(frozen, a), EntrySide(frozen, b), sim);
        std::vector<ObjectId> ids_a, ids_b;
        CollectObjectIds(frozen, a, IurTree::kNoObject, &ids_a);
        CollectObjectIds(frozen, b, IurTree::kNoObject, &ids_b);
        for (ObjectId ia : ids_a) {
          for (ObjectId ib : ids_b) {
            if (ia == ib) continue;
            const double s = sim.Sim(corpus.dataset.object(ia).doc,
                                     corpus.dataset.object(ib).doc);
            ASSERT_LE(bounds.min_sim, s + 1e-9)
                << "clustered=" << clustered << " a=" << a << " b=" << b;
            ASSERT_GE(bounds.max_sim, s - 1e-9)
                << "clustered=" << clustered << " a=" << a << " b=" << b;
          }
        }
      }
    }
  }
}

/// The TE expansion priority: entries mixing several text clusters have
/// positive entropy; single-cluster entries and every entry of an
/// unclustered tree have none.
TEST(EntryBoundsTest, ClusterEntropyHigherForMixedEntries) {
  const Corpus ciur(240, /*clustered=*/true, 29);
  const FrozenTree clustered = FrozenTree::Freeze(ciur.tree);
  size_t mixed = 0;
  for (uint32_t e = 0; e < clustered.num_entries(); ++e) {
    if (clustered.NumClusters(e) > 1) {
      EXPECT_GT(EntryClusterEntropy(clustered, e), 0.0) << "entry " << e;
      ++mixed;
    } else {
      EXPECT_EQ(EntryClusterEntropy(clustered, e), 0.0) << "entry " << e;
    }
  }
  EXPECT_GT(mixed, 0u);

  const Corpus iur(120, /*clustered=*/false, 29);
  const FrozenTree plain = FrozenTree::Freeze(iur.tree);
  for (uint32_t e = 0; e < plain.num_entries(); ++e) {
    EXPECT_EQ(EntryClusterEntropy(plain, e), 0.0) << "entry " << e;
  }
}

// ---------------------------------------------------------------------------
// The lazy per-pair decision equals the eager rule

/// The eager rule PairJudge replaces: both blended bounds up front (the
/// scorer's MinScore/MaxScore), per-cluster refinement whenever they
/// straddle the threshold, then the comparison.
struct EagerPair {
  double mn = 0.0;
  double mx = 0.0;
  bool refined = false;
  uint64_t computations = 1;  ///< the pair's entry into the memo
};

EagerPair EagerInit(const FrozenTree& tree, const StScorer& scorer, uint32_t e,
                    uint32_t other) {
  EagerPair p;
  p.mn = scorer.MinScore(tree.EntryRect(e), tree.Summary(e),
                         tree.EntryRect(other), tree.Summary(other));
  p.mx = scorer.MaxScore(tree.EntryRect(e), tree.Summary(e),
                         tree.EntryRect(other), tree.Summary(other));
  return p;
}

PairVerdict EagerJudge(const FrozenTree& tree, const StScorer& scorer,
                       uint32_t e, uint32_t other, double threshold,
                       bool guaranteed, bool overlaps_cand, EagerPair* p) {
  const uint32_t nc = tree.NumClusters(other);
  if (!p->refined && nc > 0 && p->mn <= threshold && p->mx > threshold) {
    double min_sim = 1.0;
    double max_sim = 0.0;
    for (uint32_t i = 0; i < nc; ++i) {
      const SummarySpan c = tree.ClusterSummary(other, i);
      min_sim = std::min(min_sim, scorer.text().MinSim(tree.Summary(e), c));
      max_sim = std::max(max_sim, scorer.text().MaxSim(tree.Summary(e), c));
    }
    const double alpha = scorer.options().alpha;
    const Rect& a = tree.EntryRect(e);
    const Rect& b = tree.EntryRect(other);
    p->mn = alpha * scorer.SpatialSim(MaxDistance(a, b)) +
            (1.0 - alpha) * min_sim;
    p->mx = alpha * scorer.SpatialSim(MinDistance(a, b)) +
            (1.0 - alpha) * max_sim;
    p->refined = true;
    ++p->computations;
  }
  if (tree.IsObject(other)) {
    return (guaranteed ? p->mn : p->mx) > threshold ? PairVerdict::kCount
                                                     : PairVerdict::kDrop;
  }
  if (p->mx <= threshold) return PairVerdict::kDrop;
  if (p->mn > threshold && !overlaps_cand) return PairVerdict::kCount;
  return PairVerdict::kPush;
}

struct JudgeCase {
  TextMeasure measure;
  bool clustered;
};

class PairJudgeTest : public ::testing::TestWithParam<JudgeCase> {};

/// Random entry pairs drawn level by level, each judged at a sequence of
/// thresholds (random, exactly on the eager bounds, exactly on the spatial
/// bracket edges) in both probe modes, with the memo slot carried across the
/// sequence as the guaranteed and potential probes carry it: every verdict,
/// every memoized leg, the refined flag and the bound_computations count
/// must equal the eager rule's.
TEST_P(PairJudgeTest, MatchesEagerRule) {
  const JudgeCase& param = GetParam();
  const Corpus corpus(240, param.clustered, 31);
  const FrozenTree frozen = FrozenTree::Freeze(corpus.tree);
  const TextSimilarity sim(param.measure, &corpus.dataset.corpus_max());

  std::vector<std::vector<uint32_t>> by_level;
  for (uint32_t e = 0; e < frozen.num_entries(); ++e) {
    const uint32_t level = frozen.EntryLevel(e);
    if (by_level.size() <= level) by_level.resize(level + 1);
    by_level[level].push_back(e);
  }
  ASSERT_GE(by_level.size(), 3u) << "fixture tree too shallow";

  size_t lazy_legs_skipped = 0;
  size_t refinements = 0;
  for (double alpha : kAlphas) {
    const StScorer scorer(&sim, {alpha, corpus.dataset.max_dist()});
    Rng rng(static_cast<uint64_t>(alpha * 1000) + 17);
    auto pick = [&] {
      const auto& level = by_level[rng.UniformInt(uint64_t{by_level.size()})];
      return level[rng.UniformInt(uint64_t{level.size()})];
    };
    for (int trial = 0; trial < 600; ++trial) {
      const uint32_t e = pick();
      const uint32_t other = pick();
      const Rect& e_rect = frozen.EntryRect(e);
      const Rect& o_rect = frozen.EntryRect(other);
      const PairJudge judge(frozen, scorer, e);
      EagerPair eager = EagerInit(frozen, scorer, e, other);
      CandPairBounds slot;
      RstknnStats stats;
      for (int call = 0; call < 4; ++call) {
        double threshold = 0.0;
        switch (rng.UniformInt(uint64_t{5})) {
          case 0:
            threshold = rng.Uniform(-0.05, 1.05);
            break;
          case 1:
            threshold = rng.UniformInt(uint64_t{2}) == 0 ? eager.mn : eager.mx;
            break;
          case 2:  // the spatial bracket edges, exactly
            threshold =
                rng.UniformInt(uint64_t{2}) == 0
                    ? alpha * scorer.SpatialSim(MaxDistance(e_rect, o_rect))
                    : alpha * scorer.SpatialSim(MinDistance(e_rect, o_rect)) +
                          (1.0 - alpha);
            break;
          case 3:
            threshold = std::nextafter(eager.mx, -1.0);
            break;
          default:
            threshold = std::nextafter(eager.mn, 2.0);
            break;
        }
        const bool guaranteed = rng.UniformInt(uint64_t{2}) == 0;
        const bool overlaps = rng.UniformInt(uint64_t{3}) == 0;
        const PairVerdict lazy = judge.Judge(&slot, call == 0, other,
                                             threshold, guaranteed, overlaps,
                                             &stats);
        const PairVerdict want = EagerJudge(
            frozen, scorer, e, other, threshold, guaranteed, overlaps, &eager);
        const std::string where =
            "alpha=" + std::to_string(alpha) + " e=" + std::to_string(e) +
            " other=" + std::to_string(other) + " call=" +
            std::to_string(call) + " threshold=" + std::to_string(threshold);
        ASSERT_EQ(lazy, want) << where;
        ASSERT_EQ(stats.bound_computations, eager.computations) << where;
        ASSERT_EQ(slot.refined, eager.refined) << where;
        if (lazy == PairVerdict::kPush) {
          ASSERT_TRUE(slot.has_mx) << where;
        }
        if (slot.has_mn) {
          ASSERT_EQ(slot.mn, eager.mn) << where;
        }
        if (slot.has_mx) {
          ASSERT_EQ(slot.mx, eager.mx) << where;
        }
      }
      lazy_legs_skipped += (slot.has_mn ? 0 : 1) + (slot.has_mx ? 0 : 1);
      refinements += slot.refined ? 1 : 0;
    }
  }
  // The spatial bracket does settle comparisons on this data, and CIUR
  // pairs do reach the refinement leg.
  EXPECT_GT(lazy_legs_skipped, 0u);
  if (param.clustered) {
    EXPECT_GT(refinements, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeasuresAndTrees, PairJudgeTest,
    ::testing::Values(JudgeCase{TextMeasure::kExtendedJaccard, false},
                      JudgeCase{TextMeasure::kExtendedJaccard, true},
                      JudgeCase{TextMeasure::kCosine, false},
                      JudgeCase{TextMeasure::kCosine, true},
                      JudgeCase{TextMeasure::kSum, false},
                      JudgeCase{TextMeasure::kSum, true}),
    [](const auto& info) {
      return std::string(TextMeasureName(info.param.measure)) +
             (info.param.clustered ? "_ciur" : "_iur");
    });

// ---------------------------------------------------------------------------
// End to end: an alpha sweep on CIUR trees against the oracle

class AlphaSweepTest : public ::testing::TestWithParam<TextMeasure> {};

TEST_P(AlphaSweepTest, CiurProbeMatchesBruteForce) {
  const Corpus corpus(180, /*clustered=*/true, 47);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(corpus.tree);
  const TextSimilarity sim(GetParam(), &corpus.dataset.corpus_max());
  for (double alpha : kAlphas) {
    const StScorer scorer(&sim, {alpha, corpus.dataset.max_dist()});
    const RstknnSearcher searcher(&frozen, &corpus.dataset, &scorer);
    Rng rng(static_cast<uint64_t>(alpha * 100) + 3);
    for (size_t k : {size_t{2}, size_t{7}}) {
      for (int trial = 0; trial < 3; ++trial) {
        const RstknnQuery query = corpus.SelfQuery(
            static_cast<ObjectId>(
                rng.UniformInt(uint64_t{corpus.dataset.size()})),
            k);
        const std::vector<ObjectId> expected =
            BruteForceRstknn(corpus.dataset, scorer, query);
        EXPECT_EQ(searcher.Search(query).answers, expected)
            << "alpha=" << alpha << " k=" << k << " self=" << query.self;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Measures, AlphaSweepTest,
                         ::testing::Values(TextMeasure::kExtendedJaccard,
                                           TextMeasure::kCosine,
                                           TextMeasure::kSum),
                         [](const auto& info) {
                           return std::string(TextMeasureName(info.param));
                         });

// ---------------------------------------------------------------------------
// Candidate root paths (arena parent links)

/// A tight cluster far from the query: every cluster subtree clears the
/// guaranteed threshold of every cluster candidate, so a probe that failed
/// to recognise a subtree holding the candidate two or more levels up (not
/// just the node holding it) would count the candidate's own objects as
/// competitors and prune answers. With k just above the cluster size the
/// cluster objects are answers only by a margin of one or two.
TEST(CandidatePathTest, AncestorSubtreesAreNeverCountedWholesale) {
  const TextSimilarity sim(TextMeasure::kExtendedJaccard);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    Dataset d;
    const size_t n = 100 + rng.UniformInt(uint64_t{100});
    for (size_t i = 0; i < n; ++i) {
      std::vector<TermId> terms;
      for (int t = 0; t < 3; ++t) {
        terms.push_back(static_cast<TermId>(rng.UniformInt(uint64_t{6})));
      }
      d.Add({rng.Uniform(0, 1), rng.Uniform(0, 1)},
            RawDocument::FromTokens(terms));
    }
    for (int i = 0; i < 4; ++i) {
      d.Add({100.0 + i, 100.0}, RawDocument::FromTokens({50, 51}));
    }
    d.Finalize({Weighting::kTfIdf, 0.1});
    IurTreeOptions topts;
    topts.max_entries = 4;
    const IurTree tree = IurTree::BuildFromDataset(d, topts);
    ASSERT_GE(tree.height(), 3u);
    const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(tree);
    const StScorer scorer(&sim, {1.0, d.max_dist()});
    const RstknnSearcher searcher(&frozen, &d, &scorer);
    const ObjectId qid = static_cast<ObjectId>(n + 1);  // a far object
    for (size_t k = n; k <= n + 2; ++k) {
      const RstknnQuery query{d.object(qid).loc, &d.object(qid).doc, k, qid};
      const std::vector<ObjectId> expected =
          BruteForceRstknn(d, scorer, query);
      EXPECT_EQ(searcher.Search(query).answers, expected)
          << "seed=" << seed << " n=" << n << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// One ProbeScratch across trees and sizes

/// The pair memo's sparse array grows on the first large tree and never
/// shrinks, so afterwards it holds stale indices for every key a smaller tree
/// reuses; three frozen trees key the same scratch by their own explain ids.
/// Interleaved queries through one scratch must match fresh-scratch searches
/// exactly — answers and every counter — under both algorithms.
TEST(ProbeScratchTest, ReuseAcrossTreesMatchesFreshScratch) {
  const Corpus big(420, /*clustered=*/true, 5);
  const Corpus small(50, /*clustered=*/false, 6);
  const Corpus mid(160, /*clustered=*/false, 8);
  const TextSimilarity sim(TextMeasure::kExtendedJaccard);
  const StScorer big_scorer(&sim, {0.5, big.dataset.max_dist()});
  const StScorer small_scorer(&sim, {0.7, small.dataset.max_dist()});
  const StScorer mid_scorer(&sim, {0.3, mid.dataset.max_dist()});

  const frozen::FrozenTree big_frozen = frozen::FrozenTree::Freeze(big.tree);
  const frozen::FrozenTree small_frozen =
      frozen::FrozenTree::Freeze(small.tree);
  const frozen::FrozenTree mid_frozen = frozen::FrozenTree::Freeze(mid.tree);
  const RstknnSearcher big_search(&big_frozen, &big.dataset, &big_scorer);
  const RstknnSearcher small_search(&small_frozen, &small.dataset,
                                    &small_scorer);
  const RstknnSearcher mid_search(&mid_frozen, &mid.dataset, &mid_scorer);

  ProbeScratch shared;
  Rng rng(77);
  for (int round = 0; round < 4; ++round) {
    for (RstknnAlgorithm algorithm :
         {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
      RstknnOptions fresh;
      fresh.algorithm = algorithm;
      fresh.publish_metrics = false;
      RstknnOptions reused = fresh;
      reused.scratch = &shared;
      const size_t k = 3 + static_cast<size_t>(round);
      auto pick = [&](const Corpus& c) {
        return c.SelfQuery(
            static_cast<ObjectId>(rng.UniformInt(uint64_t{c.dataset.size()})),
            k);
      };
      auto check = [&](const RstknnSearcher& searcher, const RstknnQuery& q,
                       const char* what) {
        SCOPED_TRACE(std::string(what) + " round " + std::to_string(round));
        const RstknnResult a = searcher.Search(q, reused);
        const RstknnResult b = searcher.Search(q, fresh);
        EXPECT_EQ(a.answers, b.answers);
        ExpectStatsEqual(a.stats, b.stats);
      };
      check(small_search, pick(small), "small frozen");
      check(big_search, pick(big), "big frozen");
      check(small_search, pick(small), "small frozen after big");
      check(mid_search, pick(mid), "mid frozen");
      check(small_search, pick(small), "small frozen after mid");
    }
  }
}

}  // namespace
}  // namespace rst
