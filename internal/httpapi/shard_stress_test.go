package httpapi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/rng"
	"diggsim/internal/shard"
)

// TestShardedWriteStress hammers a sharded server with concurrent
// batch writes (the per-shard-parallel BulkWriter path) and single
// writes while two cursor crawlers page through /v1/stories and
// /v1/frontpage. Run with -race this is the locking acceptance test
// for the sharded write path; the crawlers also decode every cursor
// they are handed and check the shard-generation vector sums to the
// composite generation — the merge invariant that makes sharded
// cursors trustworthy.
func TestShardedWriteStress(t *testing.T) {
	g, err := graph.PreferentialAttachment(rng.New(17), 800, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	store := shard.New(g, &digg.ClassicPromotion{VoteThreshold: 8, Window: digg.Day}, 4)
	for i := 0; i < 40; i++ {
		if _, err := store.Submit(digg.UserID(i), fmt.Sprintf("seed-%d", i), 0.6, digg.Minutes(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(store, 100, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	newClient := func() *Client {
		c := NewClient(ts.URL)
		c.Backoff = time.Millisecond
		return c
	}

	const rounds = 25
	var writers, crawlers sync.WaitGroup
	var writesDone atomic.Bool
	errc := make(chan error, 8)

	// Batch writer: bursts of votes spanning all shards plus a few
	// submissions per round, through the bulk endpoints.
	writers.Add(1)
	go func() {
		defer writers.Done()
		c := newClient()
		r := rng.New(18)
		at := int64(1000)
		for round := 0; round < rounds; round++ {
			diggs := make([]apiv1.BatchDiggItem, 40)
			for i := range diggs {
				at++
				diggs[i] = apiv1.BatchDiggItem{
					Story: digg.StoryID(r.Intn(40)), Voter: digg.UserID(r.Intn(800)), At: at,
				}
			}
			if _, err := c.DiggBatch(ctx, apiv1.BatchDiggRequest{Diggs: diggs}); err != nil {
				errc <- fmt.Errorf("batch digg: %w", err)
				return
			}
			subs := make([]apiv1.SubmitRequest, 5)
			for i := range subs {
				at++
				subs[i] = apiv1.SubmitRequest{
					Submitter: digg.UserID(r.Intn(800)), Title: "burst", Interest: 0.5, At: at,
				}
			}
			if _, err := c.SubmitBatch(ctx, apiv1.BatchSubmitRequest{Stories: subs}); err != nil {
				errc <- fmt.Errorf("batch submit: %w", err)
				return
			}
		}
	}()

	// Single writer: interleaves the serial write path with the bulk
	// one, so both lock disciplines run concurrently.
	writers.Add(1)
	go func() {
		defer writers.Done()
		c := newClient()
		r := rng.New(19)
		for round := 0; round < rounds*3; round++ {
			if round%5 == 0 {
				if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: digg.UserID(r.Intn(800)), Title: "single", At: int64(9000 + round)}); err != nil {
					errc <- fmt.Errorf("single submit: %w", err)
					return
				}
			} else {
				// Duplicate-vote rejections are expected; transport errors are not.
				_, _ = c.Digg(ctx, digg.StoryID(r.Intn(40)), apiv1.DiggRequest{Voter: digg.UserID(r.Intn(800)), At: int64(9000 + round)})
			}
		}
	}()

	// checkVector decodes a minted cursor and checks its shard vector
	// is present, the right width, and sums to the composite Gen.
	checkVector := func(cur apiv1.Cursor, kind apiv1.CursorKind) error {
		if cur == "" {
			return nil
		}
		p, err := cur.Decode(kind)
		if err != nil {
			return fmt.Errorf("decoding minted cursor %q: %w", cur, err)
		}
		if len(p.ShardGens) != 4 {
			return fmt.Errorf("cursor shard vector %v, want 4 entries", p.ShardGens)
		}
		var sum uint64
		for _, sg := range p.ShardGens {
			sum += sg
		}
		if sum != p.Gen {
			return fmt.Errorf("cursor gen %d != shard vector sum %d (%v)", p.Gen, sum, p.ShardGens)
		}
		return nil
	}

	// Two crawlers with different page sizes, restarting full crawls
	// until the writers finish.
	for w, pageSize := range []int{7, 13} {
		crawlers.Add(1)
		go func(w, pageSize int) {
			defer crawlers.Done()
			c := newClient()
			for !writesDone.Load() {
				startTotal, seen := -1, 0
				prev := -1
				for page, err := range c.Stories(ctx, pageSize) {
					if err != nil {
						errc <- fmt.Errorf("crawler %d stories: %w", w, err)
						return
					}
					if startTotal < 0 {
						startTotal = page.Total
					}
					for _, s := range page.Stories {
						if int(s.ID) <= prev {
							errc <- fmt.Errorf("crawler %d: story id %d after %d (duplicate/regression)", w, s.ID, prev)
							return
						}
						prev = int(s.ID)
						seen++
					}
					if err := checkVector(page.NextCursor, apiv1.CursorStories); err != nil {
						errc <- fmt.Errorf("crawler %d: %w", w, err)
						return
					}
					if seen >= startTotal {
						break
					}
				}
				if seen < startTotal {
					errc <- fmt.Errorf("crawler %d: saw %d of %d stories", w, seen, startTotal)
					return
				}

				dup := map[int]bool{}
				pages := 0
				for page, err := range c.FrontPagePages(ctx, pageSize) {
					if err != nil {
						errc <- fmt.Errorf("crawler %d frontpage: %w", w, err)
						return
					}
					for _, s := range page.Stories {
						if dup[int(s.ID)] {
							errc <- fmt.Errorf("crawler %d: duplicate front-page story %d", w, s.ID)
							return
						}
						dup[int(s.ID)] = true
					}
					if err := checkVector(page.NextCursor, apiv1.CursorFrontPage); err != nil {
						errc <- fmt.Errorf("crawler %d: %w", w, err)
						return
					}
					if pages++; pages >= 20 {
						break
					}
				}
			}
		}(w, pageSize)
	}

	// Writers run a bounded number of rounds; once they finish, the
	// crawlers complete their current crawl and exit.
	done := make(chan struct{})
	go func() {
		defer close(done)
		writers.Wait()
		writesDone.Store(true)
		crawlers.Wait()
	}()
	select {
	case err := <-errc:
		t.Fatal(err)
	case <-done:
	}
	// A goroutine that errored also exits its wait group; make sure no
	// error raced the clean completion.
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
