// Experiment E11 (2016 paper, Figure 15): users indexed with a MIUR-tree vs
// the in-memory user set, varying |U|. Reports combined simulated I/O
// (object MIR-tree + user MIUR-tree) and the percentage of users whose
// individual top-k was never computed ("Users pruned (%)").
//
// Two location scenarios. With candidate locations inside the audience's own
// neighbourhood every user is reachable in this workload (ground truth
// verified: the max achievable score beats RS_k(u) for every user), so no
// user can be pruned — the honest outcome at this scale (see EXPERIMENTS.md).
// Displaced locations (a campaign outside the neighbourhood) leave only
// textually strong users reachable, which is where the MIUR index skips
// refining the rest — the paper's "Users pruned (%)" regime.

#include "bench_common.h"

#include "rst/common/stopwatch.h"
#include "rst/maxbrst/miur.h"

namespace {

void RunScenario(const rst::bench::ExtParams& params, double offset) {
  using namespace rst::bench;
  using namespace rst;
  for (size_t num_users : {100, 500, 1000, 2000}) {
    const ExtEnv& env = CachedExtEnv(params);
    TextSimilarity sim(TextMeasure::kSum, &env.dataset.corpus_max());
    StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});

    double plain_ms = 0, miur_ms = 0, plain_io = 0, miur_io = 0, pruned = 0,
           cover = 0;
    for (size_t rep = 0; rep < Reps(); ++rep) {
      UserGenConfig ucfg;
      ucfg.num_users = num_users;
      ucfg.keywords_per_user = params.ul;
      ucfg.num_unique_keywords = params.uw;
      ucfg.area_extent = num_users <= 500 ? 5.0 : 20.0;
      ucfg.seed = params.seed + 31 * rep;
      const GeneratedUsers gen = GenUsers(env.dataset, ucfg);
      Rect location_area = gen.area;
      location_area.min_x += offset;
      location_area.max_x += offset;
      MaxBrstQuery query;
      query.locations =
          GenCandidateLocations(location_area, params.num_locations, ucfg.seed);
      query.keywords = gen.candidate_keywords;
      query.ws = params.ws;
      query.k = params.k;

      // Plain: all users resident, top-k for everyone.
      Stopwatch timer;
      JointTopKProcessor proc(&env.tree, &env.dataset, &scorer);
      const JointTopKResult joint = proc.Process(gen.users, params.k);
      MaxBrstSolver solver(&env.dataset, &scorer);
      const MaxBrstResult plain =
          solver.Solve(gen.users, joint.rsk, query, KeywordSelect::kApprox);
      plain_ms += timer.ElapsedMillis();
      plain_io += static_cast<double>(joint.io.TotalIos());
      cover += static_cast<double>(plain.coverage());

      // MIUR: users behind an index; refine only where needed.
      IurTreeOptions uopts;
      uopts.max_entries = 16;
      const IurTree user_tree = IurTree::BuildFromUsers(gen.users, uopts);
      timer.Restart();
      MiurMaxBrstSolver miur(&env.tree, &env.dataset, &scorer, &user_tree,
                             &gen.users);
      const MiurResult got = miur.Solve(query, KeywordSelect::kApprox);
      miur_ms += timer.ElapsedMillis();
      miur_io += static_cast<double>(got.stats.object_io.TotalIos() +
                                     got.stats.user_io.TotalIos());
      pruned += 100.0 * got.stats.UsersPrunedFraction(gen.users.size());
    }
    const double inv = 1.0 / static_cast<double>(Reps());
    PrintRow({FmtInt(num_users), Fmt(plain_ms * inv), Fmt(miur_ms * inv),
              Fmt(plain_io * inv, 0), Fmt(miur_io * inv, 0),
              Fmt(pruned * inv, 1), Fmt(cover * inv, 1)});
  }
}

}  // namespace

int main() {
  using namespace rst::bench;
  ExtParams params;
  for (const double offset : {0.0, 40.0}) {
    ExtParams scenario = params;
    // Displaced campaigns target keyword-rich users (UL=5): only textually
    // strong users stay reachable at distance, the rest are prunable.
    if (offset > 0) scenario.ul = 5;
    PrintTitle(std::string("E11/Fig15: MIUR user index, vary |U|  (|O|=") +
               std::to_string(scenario.num_objects) +
               (offset > 0 ? ", displaced L, UL=5)" : ", in-area L)"));
    PrintHeader({"|U|", "plain_ms", "miur_ms", "plain_io", "miur_io",
                 "pruned_%", "cover"});
    RunScenario(scenario, offset);
  }
  EmitFigureMetrics("fig_ext_user_index");
  return 0;
}
