package obs

// The freshness families measure write→visibility end to end — the
// system-level analogue of the paper's attention-propagation speed.
// Family names live here so every recording layer (httpapi, live,
// repl, the diggload client probe) spells the same series; each layer
// registers its own labeled series with its registry. All are
// histograms in seconds on /metrics, milliseconds on /debug/timeline. See
// docs/observability.md for the exact span each one covers.
const (
	// FreshnessFrontpageFamily: write accepted → republished snapshot
	// readable (source="http" for external writes, "step" for the live
	// simulation tick, "client" for diggload's end-to-end probe).
	FreshnessFrontpageFamily = "diggsim_freshness_write_to_frontpage_visible_seconds"
	// FreshnessSSEFamily: bus publish → event bytes flushed to an SSE
	// subscriber's connection.
	FreshnessSSEFamily = "diggsim_freshness_publish_to_sse_delivered_seconds"
	// FreshnessFollowerFamily: primary WAL commit → follower applied
	// and republished (cross-process: commit wall-clock timestamps ride
	// replication heartbeats, so skew between hosts shifts this series
	// exactly like diggsim_repl_lag_seconds).
	FreshnessFollowerFamily = "diggsim_freshness_commit_to_follower_visible_seconds"
)
