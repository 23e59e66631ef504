package diggsim

// durable_integration_test.go exercises the persistence subsystem end
// to end: a live service drives a durable store (a one-shard
// shard.Store, the shape `diggd -data-dir` serves: write-ahead log +
// checkpoints) while HTTP readers crawl the lock-free snapshot path,
// the process "crashes" (the store is abandoned without any shutdown
// hook), and recovery must reproduce the platform exactly — the
// restart-fidelity acceptance bar. Run under -race this doubles as the
// locking regression test for the durability write path.

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"diggsim/internal/dataset"
	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/httpapi"
	"diggsim/internal/live"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// durableTestOptions: SyncAlways makes every applied command a durable
// point, so a hard stop at an arbitrary moment must lose nothing;
// tiny segments force rotation; automatic checkpoints are disabled so
// the test controls exactly where the checkpoint/tail boundary falls.
func durableTestOptions(policy digg.PromotionPolicy) durable.Options {
	return durable.Options{
		Policy:          policy,
		Sync:            wal.SyncAlways,
		SegmentSize:     32 << 10,
		CheckpointEvery: -1,
	}
}

// capture deep-copies the platform through the state codec — the
// reference state recovery is compared against.
func capture(t *testing.T, p *digg.Platform) *digg.Platform {
	t.Helper()
	q, err := digg.RestorePlatform(p.Graph, p.Policy, p.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// assertRecovered asserts the acceptance criteria's exact state match:
// Generation, Stories, FrontPage, PromotedIDs, TopUsers and per-story
// versions.
func assertRecovered(t *testing.T, want *digg.Platform, got digg.Store) {
	t.Helper()
	if got.Generation() != want.Generation() {
		t.Fatalf("generation: got %d, want %d", got.Generation(), want.Generation())
	}
	if got.NumStories() != want.NumStories() {
		t.Fatalf("stories: got %d, want %d", got.NumStories(), want.NumStories())
	}
	for i := 0; i < want.NumStories(); i++ {
		id := digg.StoryID(i)
		ws, _ := want.Story(id)
		gs, err := got.Story(id)
		if err != nil {
			t.Fatalf("story %d: %v", i, err)
		}
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("story %d differs:\nwant %+v\ngot  %+v", i, ws, gs)
		}
		if want.StoryVersion(id) != got.StoryVersion(id) {
			t.Fatalf("story %d version: got %d, want %d", i, got.StoryVersion(id), want.StoryVersion(id))
		}
	}
	if !reflect.DeepEqual(want.PromotedIDs(), got.PromotedIDs()) {
		t.Fatal("promotion order differs")
	}
	wantFP, gotFP := want.FrontPage(0), got.FrontPage(0)
	for i := range wantFP {
		if wantFP[i].ID != gotFP[i].ID {
			t.Fatalf("front page entry %d: got %d, want %d", i, gotFP[i].ID, wantFP[i].ID)
		}
	}
	if !reflect.DeepEqual(want.TopUsers(200), got.TopUsers(200)) {
		t.Fatal("top users differ")
	}
}

func TestCrashRecoveryUnderLiveService(t *testing.T) {
	dir := t.TempDir()
	cfg := dataset.SmallConfig()
	cfg.Users = 4000
	cfg.Submissions = 120
	cfg.Seed = 777
	cfg.Policy = &digg.ClassicPromotion{VoteThreshold: 15, Window: digg.Day}
	cfg.Agent.MaxVotes = 300
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := shard.Create(dir, ds.Platform, 1, []byte(`{"test":"crash-recovery"}`),
		durableTestOptions(cfg.Policy))
	if err != nil {
		t.Fatal(err)
	}

	svc, err := live.NewService(store, live.Config{
		Seed:               5,
		StartAt:            cfg.SnapshotAt,
		Agent:              cfg.Agent,
		SubmissionsPerHour: 240,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httpapi.NewServer(store, cfg.SnapshotAt, nil)
	srv.AttachLive(svc)
	handler := srv.Handler()

	// Concurrent readers crawl the hot endpoints the whole time, so
	// -race checks the durable write path against the lock-free reads.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/v1/frontpage?limit=15", "/v1/upcoming?limit=15", "/v1/stories/5", "/v1/topusers?limit=20"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, paths[(i+g)%len(paths)], nil)
				rw := httptest.NewRecorder()
				handler.ServeHTTP(rw, req)
			}
		}(g)
	}

	// Drive the simulation deterministically, interleaving external
	// HTTP writes (single digg + a batch) with stepper activity, and
	// take a mid-run checkpoint so recovery combines checkpoint state
	// with a replayed WAL tail.
	now := cfg.SnapshotAt
	for i := 0; i < 30; i++ {
		now += 7
		if err := svc.StepTo(now); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 10:
			req := httptest.NewRequest(http.MethodPost, "/v1/stories/3/digg",
				strings.NewReader(`{"voter":3999}`))
			rw := httptest.NewRecorder()
			handler.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK && rw.Code != http.StatusConflict && rw.Code != http.StatusGone {
				t.Fatalf("digg status %d: %s", rw.Code, rw.Body)
			}
		case 15:
			req := httptest.NewRequest(http.MethodPost, "/v1/diggs:batch",
				strings.NewReader(`{"diggs":[{"story":4,"voter":3998},{"story":4,"voter":3997},{"story":4,"voter":3998}]}`))
			rw := httptest.NewRecorder()
			handler.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				t.Fatalf("batch status %d: %s", rw.Code, rw.Body)
			}
		case 20:
			// Checkpoint under the write lock, like the scheduler would.
			svc.Locker().Lock()
			err := store.Checkpoint()
			svc.Locker().Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Everything applied is durable (SyncAlways): this is the last
	// durable point. Capture it, then crash — no shutdown hook, no
	// close; the abandoned store is simply never touched again.
	svc.Locker().RLock()
	want := capture(t, store.DurableShard(0).Unwrap())
	svc.Locker().RUnlock()

	recovered, err := shard.Open(dir, durableTestOptions(cfg.Policy))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	rec := recovered.Recovery().Shards[0]
	if rec.Replayed == 0 {
		t.Fatal("hard stop after a mid-run checkpoint must leave a WAL tail to replay")
	}
	assertRecovered(t, want, recovered)

	// The recovered store serves and keeps evolving: attach a fresh
	// live service and step it further.
	svc2, err := live.NewService(recovered, live.Config{
		Seed:               6,
		StartAt:            now,
		Agent:              cfg.Agent,
		SubmissionsPerHour: 240,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		now += 7
		if err := svc2.StepTo(now); err != nil {
			t.Fatal(err)
		}
	}

	// Clean shutdown: final checkpoint + close. The next boot must
	// replay zero records and still match exactly.
	svc2.Locker().RLock()
	want2 := capture(t, recovered.DurableShard(0).Unwrap())
	svc2.Locker().RUnlock()
	svc2.Locker().Lock()
	err = recovered.Checkpoint()
	svc2.Locker().Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := shard.Open(dir, durableTestOptions(cfg.Policy))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rec := reopened.Recovery().Shards[0]; rec.Replayed != 0 {
		t.Fatalf("clean shutdown replayed %d records, want 0", rec.Replayed)
	}
	assertRecovered(t, want2, reopened)
}
