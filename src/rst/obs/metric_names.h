#ifndef RST_OBS_METRIC_NAMES_H_
#define RST_OBS_METRIC_NAMES_H_

// Central registry of every metric, trace-span, and span-counter name in the
// tree (DESIGN.md §11.3). All name strings passed to rst::obs — counters,
// gauges, histograms, QueryTrace roots, TraceSpan labels, AddCount keys, and
// the Publish() prefix/suffix families — must come from this header; inline
// string literals at call sites are rejected by `tools/rst_lint.py`
// (rule `metric-name-literal`). Single-sourcing the names kills the
// typo'd-counter class of bug: a misspelled name is now a compile error, not
// a silently separate time series.
//
// Naming scheme (DESIGN.md §7): dot-separated `<subsystem>.<metric>`.
// Suffix constants (kSuffix*) start with '.' and are appended to a publish
// prefix, e.g. `prefix + kSuffixNodeReads` -> "rstknn.io.node_reads".

namespace rst::obs::names {

// --- exec (batch runner, slow-query log) ---
inline constexpr char kExecBatches[] = "exec.batches";
inline constexpr char kExecBatchQueries[] = "exec.batch.queries";
inline constexpr char kExecBatchMs[] = "exec.batch.ms";
inline constexpr char kExecWorkerBusyMs[] = "exec.worker.busy_ms";
inline constexpr char kExecBatchQueueWaitMs[] = "exec.batch.queue_wait_ms";
inline constexpr char kExecSlowQueries[] = "exec.slow_queries";

// --- rstknn query engine ---
inline constexpr char kRstknnQueries[] = "rstknn.queries";
inline constexpr char kRstknnAnswers[] = "rstknn.answers";
inline constexpr char kRstknnQueryMs[] = "rstknn.query.ms";

// --- iurtree builds and dynamic maintenance ---
inline constexpr char kIurtreeBuilds[] = "iurtree.builds";
inline constexpr char kIurtreeBuildNodes[] = "iurtree.build.nodes";
inline constexpr char kIurtreeBuildLeafNodes[] = "iurtree.build.leaf_nodes";
inline constexpr char kIurtreeBuildLastMs[] = "iurtree.build.last_ms";
inline constexpr char kIurtreeBuildLastNodeCount[] =
    "iurtree.build.last_node_count";
inline constexpr char kIurtreeBuildParallelMs[] = "iurtree.build.parallel_ms";
inline constexpr char kIurtreeFanout[] = "iurtree.fanout";

// --- topk ---
inline constexpr char kTopkQueries[] = "topk.queries";
inline constexpr char kTopkPqPops[] = "topk.pq_pops";
inline constexpr char kTopkExpansions[] = "topk.expansions";
inline constexpr char kTopkQueryMs[] = "topk.query.ms";

// --- maxbrst / miur / joint_topk (2016 extension) ---
inline constexpr char kMaxbrstSolves[] = "maxbrst.solves";
inline constexpr char kMaxbrstSolveMs[] = "maxbrst.solve.ms";
inline constexpr char kMiurSolves[] = "miur.solves";
inline constexpr char kMiurUsersRefined[] = "miur.users_refined";
inline constexpr char kJointTopkRuns[] = "joint_topk.runs";
inline constexpr char kJointTopkScoredObjects[] = "joint_topk.scored_objects";
inline constexpr char kJointTopkBoundEvaluations[] =
    "joint_topk.bound_evaluations";
inline constexpr char kJointTopkBaselineRuns[] = "joint_topk.baseline.runs";

// --- sharded scatter-gather (rst::shard; DESIGN.md §15) ---
inline constexpr char kShardPruned[] = "rstknn.shard.pruned";
inline constexpr char kShardSearched[] = "rstknn.shard.searched";
inline constexpr char kShardReported[] = "rstknn.shard.reported";

// --- frozen flat-layout snapshot ---
inline constexpr char kFrozenFreezes[] = "frozen.freezes";
inline constexpr char kFrozenLoads[] = "frozen.loads";
inline constexpr char kFrozenFreezeLastMs[] = "frozen.freeze.last_ms";
inline constexpr char kFrozenLoadLastMs[] = "frozen.load.last_ms";

// --- per-phase latency attribution (obs/phase_timer.h; DESIGN.md §12) ---
// One histogram per phase; each completed profiled query records its
// per-phase self time as one sample, so Percentile() on these is a per-query
// latency distribution, not a per-scope one.
inline constexpr char kPhaseDescentMs[] = "rstknn.phase.descent.ms";
inline constexpr char kPhaseBoundsMs[] = "rstknn.phase.bounds.ms";
inline constexpr char kPhaseMergeMs[] = "rstknn.phase.merge.ms";
inline constexpr char kPhaseIoMs[] = "rstknn.phase.io.ms";
inline constexpr char kPhaseFinalizeMs[] = "rstknn.phase.finalize.ms";
inline constexpr char kPhaseProfiledQueries[] = "rstknn.phase.profiled_queries";

// --- runtime telemetry sampler (obs/runtime.h) ---
inline constexpr char kRuntimeRssBytes[] = "runtime.rss_bytes";
inline constexpr char kRuntimeMaxRssBytes[] = "runtime.max_rss_bytes";
inline constexpr char kRuntimeMinorFaults[] = "runtime.minor_faults";
inline constexpr char kRuntimeMajorFaults[] = "runtime.major_faults";
inline constexpr char kRuntimeCpuUserMs[] = "runtime.cpu_user_ms";
inline constexpr char kRuntimeCpuSysMs[] = "runtime.cpu_sys_ms";
inline constexpr char kRuntimeThreads[] = "runtime.threads";
inline constexpr char kRuntimeSamples[] = "runtime.samples";

// --- workload capture journal (obs/journal.h) ---
inline constexpr char kJournalRecords[] = "journal.records";
inline constexpr char kJournalErrors[] = "journal.errors";

// --- Chrome trace-event export (obs/trace_event.h) ---
// Event names and categories; tracks are named per worker.
inline constexpr char kTraceEventRun[] = "run";
inline constexpr char kTraceEventQueueWait[] = "queue_wait";
inline constexpr char kTraceCatExec[] = "exec";
inline constexpr char kTraceCatSpan[] = "span";
inline constexpr char kTraceArgQuery[] = "query";
inline constexpr char kTraceArgQueueWaitMs[] = "queue_wait_ms";
inline constexpr char kTraceArgCalls[] = "calls";

// --- storage ---
inline constexpr char kPageStoreWrites[] = "storage.page_store.writes";
inline constexpr char kPageStorePagesWritten[] =
    "storage.page_store.pages_written";

// --- precompute baseline ---
inline constexpr char kBaselineBuilds[] = "baseline.builds";
inline constexpr char kBaselineBuildMs[] = "baseline.build.ms";
inline constexpr char kBaselineQueries[] = "baseline.queries";
inline constexpr char kBaselineQueryMs[] = "baseline.query.ms";

// --- Publish() prefixes (stat families expanded with the suffixes below) ---
inline constexpr char kRstknnPrefix[] = "rstknn";
inline constexpr char kBaselinePrefix[] = "baseline";
inline constexpr char kBaselineBuildIoPrefix[] = "baseline.build.io";
inline constexpr char kMaxbrstPrefix[] = "maxbrst";
inline constexpr char kMiurPrefix[] = "miur";
inline constexpr char kMiurObjectIoPrefix[] = "miur.object_io";
inline constexpr char kMiurUserIoPrefix[] = "miur.user_io";
inline constexpr char kJointTopkIoPrefix[] = "joint_topk.io";
inline constexpr char kJointTopkBaselineIoPrefix[] = "joint_topk.baseline.io";

// --- Publish() suffixes: IoStats ---
inline constexpr char kSuffixIo[] = ".io";
inline constexpr char kSuffixNodeReads[] = ".node_reads";
inline constexpr char kSuffixPayloadBlocks[] = ".payload_blocks";
inline constexpr char kSuffixPayloadBytes[] = ".payload_bytes";

// --- Publish() suffixes: RstknnStats ---
inline constexpr char kSuffixEntriesCreated[] = ".entries_created";
inline constexpr char kSuffixExpansions[] = ".expansions";
inline constexpr char kSuffixPrunedEntries[] = ".pruned_entries";
inline constexpr char kSuffixReportedEntries[] = ".reported_entries";
inline constexpr char kSuffixBoundComputations[] = ".bound_computations";
inline constexpr char kSuffixProbes[] = ".probes";
inline constexpr char kSuffixPqPops[] = ".pq_pops";

// --- Publish() suffixes: MaxBrstStats ---
inline constexpr char kSuffixLocationsPruned[] = ".locations_pruned";
inline constexpr char kSuffixCombinationsEvaluated[] =
    ".combinations_evaluated";
inline constexpr char kSuffixUserEvaluations[] = ".user_evaluations";
inline constexpr char kSuffixEarlyTerminations[] = ".early_terminations";

// --- QueryTrace root labels (also SlowQueryRecord::label values) ---
inline constexpr char kTraceQuery[] = "query";
inline constexpr char kTraceTopk[] = "topk";
inline constexpr char kTraceRstknn[] = "rstknn";
inline constexpr char kTraceMaxbrst[] = "maxbrst";

// --- TraceSpan labels ---
inline constexpr char kSpanIurtreeBuild[] = "iurtree.build";
inline constexpr char kSpanPack[] = "pack";
inline constexpr char kSpanFinalizeStorage[] = "finalize_storage";
inline constexpr char kSpanTopkSearch[] = "topk.search";
inline constexpr char kSpanMaxbrstFilter[] = "maxbrst.filter";
inline constexpr char kSpanMaxbrstSelect[] = "maxbrst.select";
inline constexpr char kSpanMaxbrstEvaluate[] = "maxbrst.evaluate";
inline constexpr char kSpanFrozenFreeze[] = "frozen.freeze";
inline constexpr char kSpanFrozenLayout[] = "layout";
inline constexpr char kSpanFrozenPayloads[] = "payloads";
inline constexpr char kSpanSetup[] = "setup";
inline constexpr char kSpanExpand[] = "expand";
inline constexpr char kSpanPick[] = "pick";
inline constexpr char kSpanProbeGuaranteed[] = "probe.guaranteed";
inline constexpr char kSpanProbePotential[] = "probe.potential";
inline constexpr char kSpanContributions[] = "contributions";
inline constexpr char kSpanRstknnProbe[] = "rstknn.probe";
inline constexpr char kSpanRstknnContributionList[] =
    "rstknn.contribution_list";
inline constexpr char kSpanBaselineBuild[] = "baseline.build";
inline constexpr char kSpanBaselineScan[] = "baseline.scan";
inline constexpr char kSpanJointTopk[] = "joint_topk";

// --- TraceSpan::AddCount keys ---
inline constexpr char kCountPqPops[] = "pq_pops";
inline constexpr char kCountExpansions[] = "expansions";
inline constexpr char kCountBoundComputations[] = "bound_computations";
inline constexpr char kCountEntries[] = "entries";
inline constexpr char kCountObjects[] = "objects";
inline constexpr char kCountObjectsScanned[] = "objects_scanned";
inline constexpr char kCountLocationsPruned[] = "locations_pruned";
inline constexpr char kCountLocationsKept[] = "locations_kept";
inline constexpr char kCountCombinations[] = "combinations";
inline constexpr char kCountUsers[] = "users";

}  // namespace rst::obs::names

#endif  // RST_OBS_METRIC_NAMES_H_
