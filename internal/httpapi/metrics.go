package httpapi

import (
	"bytes"
	"net/http"
	"strconv"

	"diggsim/internal/live"
	"diggsim/internal/obs"
	"diggsim/internal/repl"
	"diggsim/internal/shard"
)

// handleMetricsProm serves GET /metrics in the Prometheus text
// exposition format (version 0.0.4): this server's state families
// (s.reg, see registerCollectors) followed by the process-wide
// instruments in obs.Default.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	s.reg.WritePrometheus(&b)
	obs.Default.WritePrometheus(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}

// registerCollectors exports the server's own state as collectors on
// s.reg, read at scrape and timeline-capture time only: the
// middleware's request counters (with AttachMetrics), store gauges,
// per-shard series labeled by shard index (sharded stores),
// replication positions (with AttachRepl), live-simulation series
// (with AttachLive) and the published view's generation. Store reads
// take the server's read lock like any other store query. Handler
// calls it once the first view is published.
func (s *Server) registerCollectors() {
	value := func(family, kind, help string, read func() uint64) {
		s.reg.Collect(family, kind, help, func(emit func(string, uint64)) { emit("", read()) })
	}
	locked := func(read func() uint64) func() uint64 {
		return func() uint64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return read()
		}
	}

	if m := s.metrics; m != nil {
		value("diggsim_http_requests_total", "counter", "HTTP requests served, including rejected ones.", m.requests.Load)
		value("diggsim_http_errors_total", "counter", "HTTP responses with status >= 400.", m.errors.Load)
		value("diggsim_http_rate_limited_total", "counter", "HTTP requests rejected with 429 by the rate limiter.", m.limited.Load)
		value("diggsim_http_in_flight", "gauge", "Requests currently being served.",
			func() uint64 { return uint64(m.inFlight.Load()) })
	}

	// The generation can reset when a fresh data directory replaces an
	// old one, so it is a gauge, not a counter (Prometheus counter
	// semantics would misread the reset as a rate spike).
	value("diggsim_store_generation", "gauge", "Store write generation (sum of shard generations when sharded).",
		locked(s.store.Generation))
	value("diggsim_store_stories", "gauge", "Stories in the store.",
		locked(func() uint64 { return uint64(s.store.NumStories()) }))
	value("diggsim_store_promoted", "gauge", "Stories promoted to the front page.",
		locked(func() uint64 { return uint64(s.store.PromotedCount()) }))

	if st, ok := s.store.(interface{ Stats() []shard.Stat }); ok {
		stat := func(family, kind, help string, pick func(shard.Stat) uint64) {
			s.reg.Collect(family, kind, help, func(emit func(string, uint64)) {
				s.mu.RLock()
				stats := st.Stats()
				s.mu.RUnlock()
				for _, x := range stats {
					emit(shardLabel(x.Shard), pick(x))
				}
			})
		}
		stat("diggsim_shard_writes_total", "counter", "Commands applied per shard since process start.",
			func(x shard.Stat) uint64 { return x.Writes })
		stat("diggsim_shard_replayed_total", "counter", "WAL records replayed per shard at recovery.",
			func(x shard.Stat) uint64 { return x.Replayed })
		stat("diggsim_shard_generation", "gauge", "Per-shard write generation.",
			func(x shard.Stat) uint64 { return x.Generation })
		stat("diggsim_shard_stories", "gauge", "Stories owned per shard.",
			func(x shard.Stat) uint64 { return uint64(x.Stories) })
	}

	if f := s.repl; f != nil {
		// diggsim_repl_lag_seconds (per-shard histograms) and the
		// reconnect/apply counters are process-wide, in obs.Default.
		lsn := func(family, help string, pick func(repl.ShardStatus) uint64) {
			s.reg.Collect(family, "gauge", help, func(emit func(string, uint64)) {
				for _, st := range f.ShardStatuses() {
					emit(shardLabel(st.Shard), pick(st))
				}
			})
		}
		lsn("diggsim_repl_applied_lsn", "This node's applied WAL position per shard.",
			func(st repl.ShardStatus) uint64 { return st.AppliedLSN })
		lsn("diggsim_repl_shipped_lsn", "The primary's head per its last heartbeat, per shard.",
			func(st repl.ShardStatus) uint64 { return st.ShippedLSN })
	}

	if svc := s.live; svc != nil {
		stat := func(pick func(live.Stats) uint64) func() uint64 {
			return func() uint64 { return pick(svc.Stats()) }
		}
		value("diggsim_live_sim_minutes", "gauge", "Current simulation time in sim-minutes.",
			stat(func(ls live.Stats) uint64 { return uint64(ls.SimNow) }))
		value("diggsim_live_submits_total", "counter", "Stories submitted by the live simulation.",
			stat(func(ls live.Stats) uint64 { return ls.Submits }))
		value("diggsim_live_diggs_total", "counter", "Votes applied by the live simulation.",
			stat(func(ls live.Stats) uint64 { return ls.Diggs }))
		value("diggsim_live_promotions_total", "counter", "Front-page promotions by the live simulation.",
			stat(func(ls live.Stats) uint64 { return ls.Promotions }))
		value("diggsim_live_bus_subscribers", "gauge", "Subscribers on the live event bus.",
			stat(func(ls live.Stats) uint64 { return uint64(ls.Subscribers) }))
		value("diggsim_live_bus_events_total", "counter", "Events published to the live bus.",
			stat(func(ls live.Stats) uint64 { return ls.EventsPublished }))
		value("diggsim_live_bus_dropped_total", "counter", "Events dropped because a subscriber's ring was full.",
			stat(func(ls live.Stats) uint64 { return ls.EventsDropped }))
		value("diggsim_live_bus_max_queue", "gauge", "High-water mark of any subscriber's queue (bus lag).",
			stat(func(ls live.Stats) uint64 { return uint64(ls.MaxSubscriberQueue) }))
	}

	value("diggsim_snapshot_view_generation", "gauge", "Store generation of the currently published read view.",
		func() uint64 { return s.snap.view.Load().Gen })
}

// shardLabel is the label pair of a per-shard series.
func shardLabel(i int) string { return `shard="` + strconv.Itoa(i) + `"` }
