#include "rst/exec/batch_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "rst/data/generators.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/metrics.h"

namespace rst {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    for (size_t chunk : {1u, 7u, 64u}) {
      exec::ThreadPool pool(threads);
      EXPECT_EQ(pool.num_threads(), threads == 0 ? 1 : threads);
      std::vector<std::atomic<int>> seen(257);
      pool.ParallelFor(seen.size(), chunk, [&](size_t i, size_t worker) {
        ASSERT_LT(worker, pool.num_threads());
        // rst-atomics: test counter; the final read happens after ParallelFor
        // returns (join barrier), so relaxed increments are safely visible.
        seen[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].load(), 1) << "index " << i << " threads " << threads
                                     << " chunk " << chunk;
      }
    }
  }
}

TEST(ThreadPoolTest, EmptyLoopIsANoop) {
  exec::ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, 1, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, PropagatesWorkerExceptions) {
  for (size_t threads : {1u, 4u}) {
    exec::ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.ParallelFor(64, 1,
                         [&](size_t i, size_t) {
                           // rst-atomics: test counter; the final read happens after ParallelFor
                           // returns (join barrier), so relaxed increments are safely visible.
                           ran.fetch_add(1, std::memory_order_relaxed);
                           if (i == 5) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // Unclaimed chunks are abandoned after the throw.
    EXPECT_LE(ran.load(), 64);
    EXPECT_GE(ran.load(), 1);
    // The pool survives an exception and stays usable.
    std::atomic<int> after{0};
    pool.ParallelFor(16, 4, [&](size_t, size_t) {
      // rst-atomics: test counter; the final read happens after ParallelFor
      // returns (join barrier), so relaxed increments are safely visible.
      after.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(after.load(), 16);
  }
}

TEST(ThreadPoolTest, StressManySmallLoops) {
  // TSan-friendly: lots of job handoffs through the chunk queue, a shared
  // accumulator, and per-worker slots touched from changing threads.
  exec::ThreadPool pool(8);
  std::atomic<uint64_t> sum{0};
  std::vector<uint64_t> per_worker(pool.num_threads(), 0);
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(32, 3, [&](size_t i, size_t w) {
      // rst-atomics: test counter; the final read happens after ParallelFor
      // returns (join barrier), so relaxed increments are safely visible.
      sum.fetch_add(i + 1, std::memory_order_relaxed);
      per_worker[w] += 1;  // worker-private slot, no lock needed
    });
  }
  EXPECT_EQ(sum.load(), 200ull * (32ull * 33ull / 2ull));
  uint64_t total = 0;
  for (uint64_t c : per_worker) total += c;
  EXPECT_EQ(total, 200ull * 32ull);
}

// ---------------------------------------------------------------------------
// BatchRunner

struct BatchFixture {
  Dataset dataset;
  std::vector<uint32_t> clusters;
  frozen::FrozenTree tree;  // plain IUR-tree, frozen
  frozen::FrozenTree ciur;  // clustered (exercises lazy cluster refinement)
  TextSimilarity sim;
  StScorer scorer;

  BatchFixture()
      : sim(TextMeasure::kExtendedJaccard), scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = 400;
    config.vocab_size = 200;
    config.seed = 77;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    std::vector<TermVector> docs;
    for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
    ClusteringOptions copts;
    copts.num_clusters = 6;
    clusters = ClusterDocuments(docs, copts).assignment;
    tree = frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(dataset, {}));
    ciur = frozen::FrozenTree::Freeze(
        IurTree::BuildFromDataset(dataset, {}, &clusters));
    scorer = StScorer(&sim, {0.5, dataset.max_dist()});
  }

  std::vector<RstknnQuery> Queries(size_t count, size_t k) const {
    std::vector<RstknnQuery> queries;
    queries.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const ObjectId qid = static_cast<ObjectId>((i * 37) % dataset.size());
      const StObject& q = dataset.object(qid);
      queries.push_back({q.loc, &q.doc, k, qid});
    }
    return queries;
  }
};

/// The acceptance contract: batched execution at any thread count returns
/// results identical to the serial path — same answer sets, same ordering,
/// keyed by query index — for both algorithm variants.
TEST(BatchRunnerTest, DeterministicAcrossThreadCounts) {
  const BatchFixture f;
  const std::vector<RstknnQuery> queries = f.Queries(24, 7);

  for (const frozen::FrozenTree* tree : {&f.tree, &f.ciur}) {
    for (RstknnAlgorithm algorithm :
         {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
      RstknnOptions options;
      options.algorithm = algorithm;

      // Serial reference: plain per-query searches.
      const RstknnSearcher searcher(tree, &f.dataset, &f.scorer);
      std::vector<RstknnResult> serial;
      serial.reserve(queries.size());
      for (const RstknnQuery& q : queries) {
        serial.push_back(searcher.Search(q, options));
      }

      for (size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        const exec::BatchRunner runner(tree, &f.dataset, &f.scorer, &pool);
        const std::vector<RstknnResult> batched =
            runner.RunRstknn(queries, options);
        ASSERT_EQ(batched.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
          EXPECT_EQ(batched[i].answers, serial[i].answers)
              << "threads=" << threads << " query=" << i << " algo="
              << static_cast<int>(algorithm);
          // The per-query algorithm is untouched, so the work counters are
          // identical too — not just the answers.
          EXPECT_EQ(batched[i].stats.pq_pops, serial[i].stats.pq_pops);
          EXPECT_EQ(batched[i].stats.bound_computations,
                    serial[i].stats.bound_computations);
          EXPECT_EQ(batched[i].stats.io.TotalIos(),
                    serial[i].stats.io.TotalIos());
        }
      }
    }
  }
}

TEST(BatchRunnerTest, PublishesOneAggregateIntoRegistry) {
  const BatchFixture f;
  const std::vector<RstknnQuery> queries = f.Queries(12, 5);
  exec::ThreadPool pool(4);
  const exec::BatchRunner runner(&f.tree, &f.dataset, &f.scorer, &pool);

  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  exec::BatchStats stats;
  const std::vector<RstknnResult> results =
      runner.RunRstknn(queries, RstknnOptions(), &stats);
  const obs::MetricsSnapshot delta =
      obs::MetricRegistry::Global().Snapshot().Delta(before);

  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.worker_busy_ms.size(), pool.num_threads());
  EXPECT_GT(stats.total.entries_created, 0u);
  uint64_t answers = 0;
  for (const RstknnResult& r : results) answers += r.answers.size();
  EXPECT_EQ(stats.answers, answers);

  // The batch lands as ONE aggregated publish with per-query totals intact.
  EXPECT_EQ(delta.counters.at("exec.batches"), 1u);
  EXPECT_EQ(delta.counters.at("exec.batch.queries"), queries.size());
  EXPECT_EQ(delta.counters.at("rstknn.queries"), queries.size());
  EXPECT_EQ(delta.counters.at("rstknn.answers"), answers);
  EXPECT_EQ(delta.counters.at("rstknn.expansions"), stats.total.expansions);
  EXPECT_EQ(delta.counters.at("rstknn.io.node_reads"),
            stats.total.io.node_reads);
}

TEST(BatchRunnerTest, StressSharedTreeUnderManyThreads) {
  // TSan target: 8 workers hammering one tree/dataset/scorer with scratch
  // reuse across repeated batches.
  const BatchFixture f;
  const std::vector<RstknnQuery> queries = f.Queries(16, 4);
  exec::ThreadPool pool(8);
  const exec::BatchRunner runner(&f.ciur, &f.dataset, &f.scorer, &pool);
  std::vector<RstknnResult> first = runner.RunRstknn(queries, RstknnOptions());
  for (int round = 0; round < 4; ++round) {
    const std::vector<RstknnResult> again =
        runner.RunRstknn(queries, RstknnOptions());
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i].answers, first[i].answers);
    }
  }
}

}  // namespace
}  // namespace rst
