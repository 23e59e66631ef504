package repl

// burst_test.go pins when a shipped burst becomes visible on a
// follower. The source's scheduled heartbeats are an hour apart in
// both tests, so the only heartbeats on the wire are the ones that end
// a burst: a follower that waited for a scheduled beat, or for its
// batch to fill, would never apply a lone write.

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestFollowerAppliesBurstWithoutScheduledBeat(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pr := startPrimaryBeating(t, shards, time.Hour)
			mutate(t, pr.store(), 111, 40)
			node, f := startFollower(t, pr.transport(), t.TempDir())
			defer node.Close()
			defer f.Stop()
			// Catch-up ships fewer records than BatchMax per shard.
			waitCaughtUpWithin(t, f, pr.heads(), 2*time.Second)

			// Let the streams go idle, then write once.
			time.Sleep(20 * time.Millisecond)
			if _, err := pr.store().Submit(7, "lone-write", 0.5, 500); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			waitCaughtUpWithin(t, f, pr.heads(), 2*time.Second)
			t.Logf("lone submit applied on the follower after %v", time.Since(start))
			underRLock(f, func() { compareStoresBase(t, pr.store(), node.Store()) })
		})
	}
}

// TestTailReturnsOnIdleShard pins that a WAL stream sends its headers
// when it opens: Tail on a caught-up shard returns before any frame,
// so a follower records contact without waiting for a write or a beat.
func TestTailReturnsOnIdleShard(t *testing.T) {
	pr := startPrimaryBeating(t, 1, time.Hour)
	mutate(t, pr.store(), 131, 5)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	rc, err := pr.transport().Tail(ctx, 0, pr.heads()[0])
	if err != nil {
		t.Fatalf("Tail on an idle shard: %v after %v", err, time.Since(start))
	}
	rc.Close()
}

func TestSourceEndsEachBurstWithOneHeartbeat(t *testing.T) {
	pr := startPrimaryBeating(t, 1, time.Hour)
	s, ds := pr.sharded, pr.sharded.DurableShard(0)
	mutate(t, s, 121, 20)
	h0 := ds.AppliedLSN()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rc, err := pr.transport().Tail(ctx, 0, h0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	frames := make(chan Frame, 1024)
	go func() {
		defer close(frames)
		fr := NewFrameReader(rc)
		for {
			f, err := fr.Next()
			if err != nil {
				return
			}
			f.Payload = nil // aliases the reader's buffer; only the LSN is checked
			frames <- f
		}
	}()

	idle := func(when string) {
		t.Helper()
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("%s: stream ended", when)
			}
			t.Fatalf("%s: source sent a kind-%d frame while idle", when, f.Kind)
		case <-time.After(100 * time.Millisecond):
		}
	}
	next := func() Frame {
		t.Helper()
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("stream ended mid-burst")
			}
			return f
		case <-time.After(2 * time.Second):
			t.Fatal("no frame within 2s of a burst")
		}
		return Frame{}
	}
	// burst commits one group of records as a single WAL append and
	// checks the stream ships exactly those records, then one heartbeat
	// carrying the new head and the burst's commit stamp.
	burst := func(seed uint64) {
		t.Helper()
		from := ds.AppliedLSN()
		s.BeginBatch()
		mutate(t, s, seed, 12)
		if err := s.EndBatch(); err != nil {
			t.Fatal(err)
		}
		head := ds.AppliedLSN()
		if head <= from {
			t.Fatalf("burst %d logged no records", seed)
		}
		for lsn := from; lsn < head; lsn++ {
			f := next()
			if f.Kind != FrameRecord || f.LSN != lsn {
				t.Fatalf("burst %d: got kind-%d frame (lsn %d), want record %d", seed, f.Kind, f.LSN, lsn)
			}
		}
		f := next()
		if f.Kind != FrameHeartbeat || f.Head != head {
			t.Fatalf("burst %d: got kind-%d frame (head %d), want a heartbeat at head %d", seed, f.Kind, f.Head, head)
		}
		if f.CommitLSN != head {
			t.Fatalf("burst %d: heartbeat carries commit lsn %d, want %d", seed, f.CommitLSN, head)
		}
	}

	idle("before the first burst")
	burst(122)
	idle("between bursts")
	burst(123)
	idle("after the second burst")
}
