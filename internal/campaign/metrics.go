package campaign

import "dyntreecast/internal/metrics"

// Campaign-layer instruments (DESIGN.md §3f). All counting happens off
// the trial hot path: trials are counted once each (one atomic add,
// after the trial already ran), batch sizes once per scheduling unit, and
// nothing here touches a result — artifacts are byte-identical with
// metrics live or a scraper attached, which is the observability corollary
// of the determinism contract.
//
// A "job" is one trial of one grid cell, so trials/sec is the scrape-side
// rate of campaign_jobs_completed_total.
var (
	mJobsCompleted = metrics.Default.Counter("campaign_jobs_completed_total",
		"Campaign jobs (trials) completed successfully; rate() of this is fleet trials/sec.")
	mJobsFailed = metrics.Default.Counter("campaign_jobs_failed_total",
		"Campaign jobs (trials) that returned an error.")
	mRunsStarted = metrics.Default.Counter("campaign_runs_total",
		"Spec campaigns started (RunSpec).")
	mRunsActive = metrics.Default.Gauge("campaign_runs_active",
		"Spec campaigns currently in flight.")
	mBatchTrials = metrics.Default.Histogram("campaign_batch_trials",
		"Trials per scheduled batch (whole cells, or an even share of the pending trials when cells are fewer than workers).",
		metrics.ExpBuckets(1, 2, 12))
)

// countTrial tallies one freshly executed trial into the campaign
// counters. Counters are atomics, so no lock is needed; it is called
// after each trial ran, never inside its round loop.
func countTrial(err error) {
	if err != nil {
		mJobsFailed.Inc()
	} else {
		mJobsCompleted.Inc()
	}
}
