package httpapi

// repl.go wires a replication follower into the serving layer. The
// server adopts the follower's store lock exactly as AttachLive adopts
// the simulation's (snapshot rebuilds interleave with the tailers'
// applies), republishes the read snapshot after every applied batch,
// and serves the full read surface lock-free. What changes on a
// follower:
//
//   - Writes are fenced: every write endpoint answers 503 with the
//     stable read_only_replica error code until Promote lifts the
//     fence. Reads never 503.
//   - Every response carries X-Replica-Lag (seconds, the age of the
//     oldest shard's heartbeat) so clients can judge staleness.
//   - GET /readyz gates on replication health: ready once every shard
//     has heard a heartbeat and staleness is within the configured
//     bound. A primary (or a promoted follower) is always ready.
//   - /v1/stats grows a "repl" block and /metrics per-shard
//     diggsim_repl_* series.

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/repl"
)

// DefaultReadyMaxLag is the staleness bound /readyz applies when
// AttachRepl is given none.
const DefaultReadyMaxLag = 5 * time.Second

// AttachRepl connects a replication follower: the server adopts the
// follower's lock, republishes the snapshot after every applied batch,
// fences writes while the follower is read-only, and reports
// replication position on /v1/stats, /metrics, /readyz and the
// X-Replica-Lag header. maxLag bounds /readyz staleness (0 means
// DefaultReadyMaxLag). Call before Handler and before Follower.Start.
func (s *Server) AttachRepl(f *repl.Follower, maxLag time.Duration) {
	s.mu = f.Locker()
	s.repl = f
	if maxLag <= 0 {
		maxLag = DefaultReadyMaxLag
	}
	s.replMaxLag = maxLag
	f.SetAfterApply(s.republish)
}

// MountRepl serves a node's replication endpoints under /repl/v1/ on
// the server's handler — the primary's streaming surface, and on
// followers the status/promote surface elections use. Call before
// Handler.
func (s *Server) MountRepl(src *repl.Source) { s.replSrc = src }

// replReadOnly reports whether writes must be fenced.
func (s *Server) replReadOnly() bool {
	return s.repl != nil && s.repl.ReadOnly()
}

// fence rejects the write with the machine-readable envelope when
// this node is a read-only follower. Returns true when fenced.
func (s *Server) fence(w http.ResponseWriter) bool {
	if !s.replReadOnly() {
		return false
	}
	writeError(w, newAPIError(http.StatusServiceUnavailable, apiv1.CodeReadOnlyReplica,
		"this node is a read-only follower; write to the primary"))
	return true
}

// lagHeaderTTL bounds how often the X-Replica-Lag value is
// reformatted. The header is advisory with heartbeat-interval
// resolution; formatting a float and re-inserting a canonicalized
// header per request would tax the lock-free read path for nothing.
const lagHeaderTTL = 50 * time.Millisecond

// lagHeaderEvery gates how many requests pass between clock checks
// for the cached header value: reading the clock costs more than the
// whole fast path on some hosts, so only every Nth request considers
// a refresh. Under load the gap is microseconds; on an idle follower
// the value served is at most lagHeaderEvery requests old, which an
// advisory header tolerates.
const lagHeaderEvery = 32

// replLagMiddleware stamps X-Replica-Lag (staleness in seconds, "inf"
// before the first heartbeat) on every response a follower serves.
// The formatted value is cached for lagHeaderTTL and shared across
// requests; the fast path is a counter bump, an atomic load, and one
// map insert.
func replLagMiddleware(f *repl.Follower, next http.Handler) http.Handler {
	var (
		reqs  atomic.Uint64
		stamp atomic.Int64
		value atomic.Pointer[[]string]
	)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.ReadOnly() {
			if n := reqs.Add(1); n%lagHeaderEvery == 1 || value.Load() == nil {
				now := time.Now().UnixNano()
				if last := stamp.Load(); now-last > int64(lagHeaderTTL) && stamp.CompareAndSwap(last, now) {
					s := "inf"
					if lag := f.Staleness(); lag <= time.Hour*24*365 {
						s = strconv.FormatFloat(lag.Seconds(), 'f', 3, 64)
					}
					v := []string{s}
					value.Store(&v)
				}
			}
			if v := value.Load(); v != nil {
				// Direct assignment: the key is already canonical, and
				// the shared slice is never appended to.
				w.Header()["X-Replica-Lag"] = *v
			}
		}
		next.ServeHTTP(w, r)
	})
}

// handleReadyz serves GET /readyz. A standalone or primary node is
// ready as soon as it can serve (recovery finished before the handler
// existed). A follower is ready once replication is healthy: no fatal
// error, and staleness within the bound.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// The burn-rate gate applies to every role: a node burning error
	// budget at alert rate on both windows reports degraded so load
	// balancers drain it before users notice the regression.
	if name := s.degradedSLO(); name != "" {
		http.Error(w, "degraded: slo "+name+" is burning error budget at alert rate",
			http.StatusServiceUnavailable)
		return
	}
	if s.repl == nil || !s.repl.ReadOnly() {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
		return
	}
	if err := s.repl.Err(); err != nil {
		http.Error(w, "replication failed: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	if lag := s.repl.Staleness(); lag > s.replMaxLag {
		http.Error(w, fmt.Sprintf("replica lag %s exceeds bound %s", lag, s.replMaxLag),
			http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// replStats builds the /v1/stats replication block.
func (s *Server) replStats() *apiv1.ReplStats {
	if s.repl == nil {
		return nil
	}
	out := &apiv1.ReplStats{Role: "primary"}
	if s.repl.ReadOnly() {
		out.Role = "follower"
		out.Primary = s.repl.Primary()
		if lag := s.repl.Staleness(); lag > time.Hour*24*365 {
			out.StalenessSeconds = -1
		} else {
			out.StalenessSeconds = lag.Seconds()
		}
	}
	for _, st := range s.repl.ShardStatuses() {
		out.Shards = append(out.Shards, apiv1.ReplShardStats{
			Shard:                 st.Shard,
			AppliedLSN:            st.AppliedLSN,
			ShippedLSN:            st.ShippedLSN,
			LagSeconds:            st.LagSeconds,
			LastContactAgeSeconds: st.LastContact,
			CommitTraceID:         st.CommitTraceID,
		})
	}
	return out
}
