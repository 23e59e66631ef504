package repl

// source.go is the primary side of replication: an http.Handler that
// serves a node's bootstrap artifacts (graph, newest checkpoint) and
// streams its WAL tail as frames, one independent stream per shard.
//
// Streaming never takes the store lock. A shard's WAL directory is
// append-only files (wal.TailReader reads them safely beside the live
// writer) and the head position comes through a race-safe closure, so
// a firehose of followers costs the primary file I/O and nothing on
// its write path.
//
// Stream protocol: the client asks for /repl/v1/wal/{shard}?from=N.
//
//   - N below the oldest retained record → 410 Gone. The log was
//     checkpointed and pruned past N; the follower must re-bootstrap.
//   - N past the head → 409 Conflict. The follower's log holds records
//     this source never wrote — it diverged and must wipe.
//   - otherwise → 200 and an unbounded chunked body of frames: every
//     record from N on, with heartbeats interleaved (even mid-catch-up)
//     so the follower can always measure lag, and one heartbeat ending
//     every burst so the follower applies the burst as it lands. If the
//     log is truncated or found corrupt mid-stream the source says so
//     with a terminal error frame rather than silently closing.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"diggsim/internal/durable"
	"diggsim/internal/wal"
)

// SourceShard is one shard's streaming surface: its WAL directory and
// a race-safe reader of its applied LSN.
type SourceShard struct {
	// Dir is the shard's data directory (its WAL segments live here).
	Dir string
	// Head returns the shard's applied LSN. It is called without any
	// store lock and must be safe for concurrent use
	// (durable.Store.AppliedLSN is).
	Head func() uint64
	// LastCommit, when non-nil, returns the shard's newest locally
	// originated commit stamp; heartbeats then carry it so followers can
	// measure commit→visible freshness. It is called without any store
	// lock and must be safe for concurrent use
	// (durable.Store.LastCommit is).
	LastCommit func() durable.CommitStamp
}

// appendBeat appends a heartbeat for sh carrying its newest commit
// stamp — zero when the shard exposes none or has not committed yet,
// which followers ignore.
func appendBeat(buf []byte, sh SourceShard, now time.Time) []byte {
	var c durable.CommitStamp
	if sh.LastCommit != nil {
		c = sh.LastCommit()
	}
	return AppendHeartbeatFrame(buf, sh.Head(), now.UnixNano(), c.LSN, c.UnixNano, c.TraceID)
}

// Source serves a node's replication endpoints. Zero-value durations
// get defaults; Role, Generation and Promote may be nil.
type Source struct {
	// Shards lists the node's shards in order.
	Shards []SourceShard
	// Role reports "primary" or "follower" for /status. Nil means
	// "primary".
	Role func() string
	// Generation returns the store generation for /status. It must be
	// race-safe (read from a published snapshot or under a lock). Nil
	// reports zero.
	Generation func() uint64
	// Promote, when non-nil, promotes this node to primary on
	// POST /repl/v1/promote.
	Promote func() error
	// Heartbeat is the cadence of scheduled heartbeat frames (default
	// 250ms), which bound a follower's staleness while the log is idle.
	// Independently of it, a stream sends one heartbeat at the end of
	// every burst of records, so a follower applies each burst as soon
	// as it lands.
	Heartbeat time.Duration
	// Poll is how often a caught-up stream checks the shard's head
	// (default 5ms). A check is one call to Head; the log is read again
	// only once the head has moved past the stream.
	Poll time.Duration

	initOnce  sync.Once
	closeOnce sync.Once
	closed    chan struct{}
}

// closedCh lazily initializes the shutdown channel so the zero-ish
// literal construction keeps working.
func (s *Source) closedCh() chan struct{} {
	s.initOnce.Do(func() { s.closed = make(chan struct{}) })
	return s.closed
}

// Close ends every active WAL stream (with a terminal retryable error
// frame) and makes future streams end immediately. An HTTP server
// whose graceful shutdown waits for in-flight requests needs this —
// a healthy stream otherwise never completes.
func (s *Source) Close() {
	ch := s.closedCh()
	s.closeOnce.Do(func() { close(ch) })
}

func (s *Source) heartbeat() time.Duration {
	if s.Heartbeat > 0 {
		return s.Heartbeat
	}
	return 250 * time.Millisecond
}

func (s *Source) poll() time.Duration {
	if s.Poll > 0 {
		return s.Poll
	}
	return 5 * time.Millisecond
}

// Handler returns the replication endpoints as a handler expecting
// paths relative to /repl/v1 (mount with http.StripPrefix).
func (s *Source) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /graph/{shard}", s.handleGraph)
	mux.HandleFunc("GET /checkpoint/{shard}", s.handleCheckpoint)
	mux.HandleFunc("GET /wal/{shard}", s.handleWAL)
	mux.HandleFunc("POST /promote", s.handlePromote)
	return mux
}

// shardFrom parses and bounds-checks the {shard} path value, writing
// the error response itself when it fails.
func (s *Source) shardFrom(w http.ResponseWriter, r *http.Request) (int, bool) {
	i, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || i < 0 || i >= len(s.Shards) {
		http.Error(w, fmt.Sprintf("no shard %q (have %d)", r.PathValue("shard"), len(s.Shards)), http.StatusNotFound)
		return 0, false
	}
	return i, true
}

func (s *Source) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := Status{Role: "primary", Shards: len(s.Shards), Applied: make([]uint64, len(s.Shards))}
	if s.Role != nil {
		st.Role = s.Role()
	}
	if s.Generation != nil {
		st.Generation = s.Generation()
	}
	for i, sh := range s.Shards {
		st.Applied[i] = sh.Head()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (s *Source) handleGraph(w http.ResponseWriter, r *http.Request) {
	i, ok := s.shardFrom(w, r)
	if !ok {
		return
	}
	data, err := durable.ReadGraphRaw(s.Shards[i].Dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Source) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	i, ok := s.shardFrom(w, r)
	if !ok {
		return
	}
	data, lsn, err := durable.ReadNewestCheckpointRaw(s.Shards[i].Dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Checkpoint-Lsn", strconv.FormatUint(lsn, 10))
	w.Write(data)
}

func (s *Source) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.Promote == nil {
		http.Error(w, "this node cannot be promoted", http.StatusNotImplemented)
		return
	}
	if err := s.Promote(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Source) handleWAL(w http.ResponseWriter, r *http.Request) {
	i, ok := s.shardFrom(w, r)
	if !ok {
		return
	}
	sh := s.Shards[i]
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "from must be a decimal lsn", http.StatusBadRequest)
		return
	}
	head := sh.Head()
	oldest, retained, err := wal.OldestRetained(sh.Dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !retained {
		// No segments at all: everything below the head was pruned.
		oldest = head
	}
	if from < oldest {
		http.Error(w, fmt.Sprintf("lsn %d below oldest retained %d; re-bootstrap from a checkpoint", from, oldest), http.StatusGone)
		return
	}
	if from > head {
		http.Error(w, fmt.Sprintf("lsn %d past head %d; this log has diverged from yours", from, head), http.StatusConflict)
		return
	}

	tr, err := wal.OpenTailReader(sh.Dir, from)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer tr.Close()

	w.Header().Set("Content-Type", "application/x-diggsim-repl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func(buf []byte) bool {
		if len(buf) == 0 {
			return true
		}
		if _, err := w.Write(buf); err != nil {
			return false // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	ctx := r.Context()
	closed := s.closedCh()
	hb, poll := s.heartbeat(), s.poll()
	buf := make([]byte, 0, 64<<10)
	lastBeat := time.Now()
	// shipped is set while record frames have gone out that no heartbeat
	// has followed yet.
	shipped := false
	beat := func() {
		lastBeat = time.Now()
		buf = appendBeat(buf, sh, lastBeat)
		shipped = false
	}
	wait := time.NewTimer(poll)
	defer wait.Stop()
	for ctx.Err() == nil {
		select {
		case <-closed:
			buf = AppendErrorFrame(buf, ErrCodeInternal, "source shutting down")
			flush(buf)
			return
		default:
		}
		// The log is read only while the head is past the reader, so a
		// caught-up stream's poll is one load of the head.
		rec, err := wal.Record{}, wal.ErrCaughtUp
		if sh.Head() > tr.LSN() {
			rec, err = tr.Next()
		}
		switch {
		case err == nil:
			buf = AppendRecordFrame(buf, rec.LSN, rec.Type, rec.Payload)
			shipped = true
			if time.Since(lastBeat) >= hb {
				beat()
			}
			if len(buf) >= 256<<10 {
				if !flush(buf) {
					return
				}
				buf = buf[:0]
			}
		case errors.Is(err, wal.ErrCaughtUp):
			// A heartbeat ends every burst: the follower applies what it
			// holds on each heartbeat, so the burst becomes visible there
			// now, not when its batch fills or the next beat is due.
			if shipped || time.Since(lastBeat) >= hb {
				beat()
			}
			if !flush(buf) {
				return
			}
			buf = buf[:0]
			wait.Reset(poll)
			select {
			case <-ctx.Done():
				return
			case <-closed:
			case <-wait.C:
			}
		case errors.Is(err, wal.ErrTruncated):
			// Checkpointed and pruned under this reader: the stream
			// cannot continue from here.
			buf = AppendErrorFrame(buf, ErrCodeGone, "log truncated under the stream; re-bootstrap")
			flush(buf)
			return
		default:
			buf = AppendErrorFrame(buf, ErrCodeCorrupt, err.Error())
			flush(buf)
			return
		}
	}
}
