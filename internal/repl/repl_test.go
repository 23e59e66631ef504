package repl

// repl_test.go is the end-to-end replication suite: a real primary
// store behind a real HTTP source, a follower bootstrapped over the
// wire, and assertions that the follower converges to the primary's
// exact state through catch-up, reconnects, truncation, divergence,
// and promotion. chaos_test.go layers fault injection and kill/restart
// on the same harness.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/graph"
	"diggsim/internal/rng"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

func testPolicy() digg.PromotionPolicy {
	return &digg.ClassicPromotion{VoteThreshold: 5, Window: digg.Day}
}

func testOpts() durable.Options {
	return durable.Options{Policy: testPolicy(), Sync: wal.SyncOS, CheckpointEvery: -1}
}

// newTestPlatform builds a small deterministic platform with some
// pre-replication history.
func newTestPlatform(t testing.TB) *digg.Platform {
	t.Helper()
	g, err := graph.PreferentialAttachment(rng.New(11), 400, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, testPolicy())
	r := rng.New(12)
	for i := 0; i < 8; i++ {
		st, err := p.Submit(digg.UserID(r.Intn(400)), "seed-story", 0.4, digg.Minutes(i*5))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 2+r.Intn(6); v++ {
			_, _ = p.Digg(st.ID, digg.UserID(r.Intn(400)), digg.Minutes(i*5+v+1))
		}
	}
	return p
}

// mutate drives n mixed commands through a store: submissions, votes
// (including rejected duplicates), occasional compactions.
func mutate(t testing.TB, s digg.Store, seed uint64, n int) {
	t.Helper()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0:
			if _, err := s.Submit(digg.UserID(r.Intn(400)), "live-story", 0.6, digg.Minutes(100+i)); err != nil {
				t.Fatalf("submit: %v", err)
			}
		case 1:
			_, _ = s.Digg(0, mustStory(t, s, 0).Submitter, digg.Minutes(100+i))
		case 2:
			if err := s.CompactStory(digg.StoryID(r.Intn(s.NumStories()))); err != nil {
				t.Fatalf("compact: %v", err)
			}
		default:
			_, _ = s.Digg(digg.StoryID(r.Intn(s.NumStories())), digg.UserID(r.Intn(400)), digg.Minutes(100+i))
		}
	}
}

func mustStory(t testing.TB, s digg.Store, id digg.StoryID) *digg.Story {
	t.Helper()
	st, err := s.Story(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// compareStores asserts two stores are observably identical, including
// promotion order (exact for LSN-ordered unsharded replication).
func compareStores(t testing.TB, want, got digg.Store) {
	t.Helper()
	compareStoresBase(t, want, got)
	if !reflect.DeepEqual(want.PromotedIDs(), got.PromotedIDs()) {
		t.Fatalf("promotion order differs: got %v, want %v", got.PromotedIDs(), want.PromotedIDs())
	}
	wantFP, gotFP := want.FrontPage(0), got.FrontPage(0)
	if len(wantFP) != len(gotFP) {
		t.Fatalf("front page length: got %d, want %d", len(gotFP), len(wantFP))
	}
	for i := range wantFP {
		if wantFP[i].ID != gotFP[i].ID {
			t.Fatalf("front page entry %d: got %d, want %d", i, gotFP[i].ID, wantFP[i].ID)
		}
	}
}

// compareStoresSharded asserts equality for sharded replication, where
// per-shard streams progress independently: promotion CONTENT must
// match but cross-shard promotion ties may release in (PromotedAt, ID)
// order rather than live order — the same latitude crash recovery has.
func compareStoresSharded(t testing.TB, want, got digg.Store) {
	t.Helper()
	compareStoresBase(t, want, got)
	wp := append([]digg.StoryID(nil), want.PromotedIDs()...)
	gp := append([]digg.StoryID(nil), got.PromotedIDs()...)
	sort.Slice(wp, func(i, j int) bool { return wp[i] < wp[j] })
	sort.Slice(gp, func(i, j int) bool { return gp[i] < gp[j] })
	if !reflect.DeepEqual(wp, gp) {
		t.Fatalf("promoted sets differ: got %v, want %v", gp, wp)
	}
}

func compareStoresBase(t testing.TB, want, got digg.Store) {
	t.Helper()
	if want.Generation() != got.Generation() {
		t.Fatalf("generation: got %d, want %d", got.Generation(), want.Generation())
	}
	if want.NumStories() != got.NumStories() {
		t.Fatalf("stories: got %d, want %d", got.NumStories(), want.NumStories())
	}
	for i := 0; i < want.NumStories(); i++ {
		id := digg.StoryID(i)
		if !reflect.DeepEqual(mustStory(t, want, id), mustStory(t, got, id)) {
			t.Fatalf("story %d differs", i)
		}
		if want.StoryVersion(id) != got.StoryVersion(id) {
			t.Fatalf("story %d version: got %d, want %d", i, got.StoryVersion(id), want.StoryVersion(id))
		}
	}
	if !reflect.DeepEqual(want.TopUsers(100), got.TopUsers(100)) {
		t.Fatal("top users differ")
	}
	if !reflect.DeepEqual(want.Ranks(), got.Ranks()) {
		t.Fatal("ranks differ")
	}
}

// testPrimary is a primary store serving replication over a real HTTP
// listener.
type testPrimary struct {
	t         testing.TB
	dir       string
	heartbeat time.Duration // the source's scheduled heartbeat cadence
	durable   *durable.Store
	sharded   *shard.Store
	src       *Source
	ts        *httptest.Server
}

func (p *testPrimary) store() digg.Store {
	if p.sharded != nil {
		return p.sharded
	}
	return p.durable
}

func (p *testPrimary) heads() []uint64 {
	if p.sharded == nil {
		return []uint64{p.durable.AppliedLSN()}
	}
	out := make([]uint64, p.sharded.ShardCount())
	for i := range out {
		out[i] = p.sharded.ShardAppliedLSN(i)
	}
	return out
}

func (p *testPrimary) sourceShards() []SourceShard {
	if p.sharded == nil {
		return []SourceShard{{Dir: p.durable.Dir(), Head: p.durable.AppliedLSN, LastCommit: p.durable.LastCommit}}
	}
	out := make([]SourceShard, p.sharded.ShardCount())
	for i := range out {
		ds := p.sharded.DurableShard(i)
		out[i] = SourceShard{Dir: ds.Dir(), Head: ds.AppliedLSN, LastCommit: ds.LastCommit}
	}
	return out
}

// serve (re)publishes the primary's replication endpoints on a fresh
// listener.
func (p *testPrimary) serve() {
	p.src = &Source{
		Shards:    p.sourceShards(),
		Heartbeat: p.heartbeat,
		Poll:      time.Millisecond,
	}
	mux := http.NewServeMux()
	mux.Handle("/repl/v1/", http.StripPrefix("/repl/v1", p.src.Handler()))
	p.ts = httptest.NewServer(mux)
	src, ts := p.src, p.ts
	p.t.Cleanup(func() {
		src.Close()
		ts.Close()
	})
}

// stopServe simulates the primary's listener dying: streams end, the
// port stops answering.
func (p *testPrimary) stopServe() {
	p.src.Close()
	p.ts.Close()
}

func startPrimary(t testing.TB, shards int) *testPrimary {
	t.Helper()
	return startPrimaryBeating(t, shards, 5*time.Millisecond)
}

// startPrimaryBeating starts a primary whose source sends scheduled
// heartbeats every hb.
func startPrimaryBeating(t testing.TB, shards int, hb time.Duration) *testPrimary {
	t.Helper()
	p := &testPrimary{t: t, dir: t.TempDir(), heartbeat: hb}
	plat := newTestPlatform(t)
	var err error
	if shards <= 1 {
		p.durable, err = durable.Create(p.dir, plat, []byte(`{"repl":"test"}`), testOpts())
	} else {
		p.sharded, err = shard.Create(p.dir, plat, shards, []byte(`{"repl":"test"}`), testOpts())
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.sharded != nil {
			p.sharded.Close()
		} else {
			p.durable.Close()
		}
	})
	p.serve()
	return p
}

func (p *testPrimary) transport() *HTTPTransport { return &HTTPTransport{Base: p.ts.URL} }

func followerOptions(dir string) Options {
	return Options{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		BatchMax:   64,
		StateDir:   dir,
		Primary:    "test-primary",
	}
}

// startFollower bootstraps dir from tr and starts tailing.
func startFollower(t testing.TB, tr Transport, dir string) (*Node, *Follower) {
	t.Helper()
	node, err := Bootstrap(context.Background(), tr, dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(node.Target, tr, followerOptions(dir))
	f.Start()
	return node, f
}

// waitCaughtUp blocks until the follower's applied LSNs reach heads.
func waitCaughtUp(t testing.TB, f *Follower, heads []uint64) {
	t.Helper()
	waitCaughtUpWithin(t, f, heads, 20*time.Second)
}

// waitCaughtUpWithin is waitCaughtUp with a deadline of d.
func waitCaughtUpWithin(t testing.TB, f *Follower, heads []uint64, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		ok := true
		for i, h := range heads {
			if f.target.AppliedLSN(i) < h {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			got := make([]uint64, len(heads))
			for i := range heads {
				got[i] = f.target.AppliedLSN(i)
			}
			t.Fatalf("follower never caught up: applied %v, want %v (err: %v)", got, heads, f.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// underRLock runs fn holding the follower's read lock, so comparisons
// cannot race a concurrent apply.
func underRLock(f *Follower, fn func()) {
	f.Locker().RLock()
	defer f.Locker().RUnlock()
	fn()
}

func TestFollowerReplicatesDurable(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 21, 300)

	fdir := t.TempDir()
	node, f := startFollower(t, pr.transport(), fdir)

	mutate(t, pr.store(), 22, 300)
	waitCaughtUp(t, f, pr.heads())
	underRLock(f, func() { compareStores(t, pr.store(), node.Store()) })

	if !f.ReadOnly() {
		t.Fatal("follower must be read-only before promotion")
	}
	if err := f.Err(); err != nil {
		t.Fatalf("follower error: %v", err)
	}

	// The follower keeps up with further writes.
	mutate(t, pr.store(), 23, 200)
	waitCaughtUp(t, f, pr.heads())
	underRLock(f, func() { compareStores(t, pr.store(), node.Store()) })

	// Staleness reflects recent heartbeats on a healthy stream.
	time.Sleep(30 * time.Millisecond)
	if lag := f.Staleness(); lag > 5*time.Second {
		t.Fatalf("staleness = %v on a healthy stream", lag)
	}

	// A clean restart resumes from the follower's own disk — no
	// re-seed, no divergence, same converged state.
	f.Stop()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	mutate(t, pr.store(), 24, 150)
	node2, f2 := startFollower(t, pr.transport(), fdir)
	defer node2.Close()
	defer f2.Stop()
	waitCaughtUp(t, f2, pr.heads())
	underRLock(f2, func() { compareStores(t, pr.store(), node2.Store()) })

	// The position file was maintained for offline tooling.
	st, err := ReadState(fdir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Primary != "test-primary" || len(st.Shards) != 1 {
		t.Fatalf("state file: %+v", st)
	}
}

func TestFollowerReplicatesSharded(t *testing.T) {
	pr := startPrimary(t, 4)
	mutate(t, pr.store(), 31, 300)

	fdir := t.TempDir()
	node, f := startFollower(t, pr.transport(), fdir)
	if node.Shards != 4 {
		t.Fatalf("follower bootstrapped %d shards, want 4", node.Shards)
	}

	mutate(t, pr.store(), 32, 400)
	waitCaughtUp(t, f, pr.heads())
	underRLock(f, func() { compareStoresSharded(t, pr.store(), node.Store()) })

	// Restart and keep replicating.
	f.Stop()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	mutate(t, pr.store(), 33, 200)
	node2, f2 := startFollower(t, pr.transport(), fdir)
	defer node2.Close()
	defer f2.Stop()
	waitCaughtUp(t, f2, pr.heads())
	underRLock(f2, func() { compareStoresSharded(t, pr.store(), node2.Store()) })
}

// rebindTransport lets a test swap the upstream URL, simulating a
// primary that restarts on a new listener.
type rebindTransport struct {
	mu    sync.Mutex
	inner Transport
}

func (r *rebindTransport) rebind(tr Transport) {
	r.mu.Lock()
	r.inner = tr
	r.mu.Unlock()
}

func (r *rebindTransport) cur() Transport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inner
}

func (r *rebindTransport) Status(ctx context.Context) (Status, error) { return r.cur().Status(ctx) }
func (r *rebindTransport) Graph(ctx context.Context, s int) ([]byte, error) {
	return r.cur().Graph(ctx, s)
}
func (r *rebindTransport) Checkpoint(ctx context.Context, s int) ([]byte, uint64, error) {
	return r.cur().Checkpoint(ctx, s)
}
func (r *rebindTransport) Tail(ctx context.Context, s int, from uint64) (io.ReadCloser, error) {
	return r.cur().Tail(ctx, s, from)
}
func (r *rebindTransport) Promote(ctx context.Context) error { return r.cur().Promote(ctx) }

func TestFollowerSurvivesPrimaryRestart(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 41, 200)

	tr := &rebindTransport{inner: pr.transport()}
	fdir := t.TempDir()
	node, f := startFollower(t, tr, fdir)
	defer node.Close()
	defer f.Stop()
	waitCaughtUp(t, f, pr.heads())

	// Primary "crashes": listener gone, store closed mid-flight. The
	// follower keeps serving its applied state and retries with
	// backoff.
	pr.stopServe()
	if err := pr.durable.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	underRLock(f, func() {
		if node.Store().NumStories() == 0 {
			t.Fatal("follower lost its state during the outage")
		}
	})

	// Primary restarts from its own disk on a new port; the follower's
	// next retry resumes the stream from its applied LSN.
	var err error
	pr.durable, err = durable.Open(pr.dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	pr.serve()
	tr.rebind(pr.transport())
	mutate(t, pr.store(), 42, 200)
	waitCaughtUp(t, f, pr.heads())
	underRLock(f, func() { compareStores(t, pr.store(), node.Store()) })
	if err := f.Err(); err != nil {
		t.Fatalf("restart must not be fatal: %v", err)
	}
}

func TestTailBelowRetentionIsGone(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 51, 300)
	// Checkpoint prunes the log below the head; LSN 0 is gone.
	if err := pr.durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, err := pr.transport().Tail(context.Background(), 0, 0)
	if !errors.Is(err, ErrSnapshotGone) {
		t.Fatalf("tail from 0 after prune: %v, want ErrSnapshotGone", err)
	}
	// A fresh bootstrap is unaffected: it seeds from the checkpoint and
	// tails from there.
	fdir := t.TempDir()
	node, f := startFollower(t, pr.transport(), fdir)
	defer node.Close()
	defer f.Stop()
	waitCaughtUp(t, f, pr.heads())
	underRLock(f, func() { compareStores(t, pr.store(), node.Store()) })
}

func TestStaleFollowerMustRebootstrap(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 61, 200)

	fdir := t.TempDir()
	node, f := startFollower(t, pr.transport(), fdir)
	waitCaughtUp(t, f, pr.heads())
	f.Stop()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	// While the follower is down the primary moves on AND prunes its
	// log past the follower's position.
	mutate(t, pr.store(), 62, 300)
	if err := pr.durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The resumed follower's tail is below retention: fatal, surfaced
	// through Err. Reads keep working off the stale state.
	node2, f2 := startFollower(t, pr.transport(), fdir)
	deadline := time.Now().Add(10 * time.Second)
	for f2.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("follower never reported the fatal gap")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !errors.Is(f2.Err(), ErrSnapshotGone) {
		t.Fatalf("err = %v, want ErrSnapshotGone", f2.Err())
	}
	f2.Stop()
	if err := node2.Close(); err != nil {
		t.Fatal(err)
	}

	// The runbook: wipe and re-bootstrap.
	if err := os.RemoveAll(fdir); err != nil {
		t.Fatal(err)
	}
	node3, f3 := startFollower(t, pr.transport(), fdir)
	defer node3.Close()
	defer f3.Stop()
	waitCaughtUp(t, f3, pr.heads())
	underRLock(f3, func() { compareStores(t, pr.store(), node3.Store()) })
}

func TestDivergedFollowerIsWipedOnBootstrap(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 71, 200)

	fdir := t.TempDir()
	node, f := startFollower(t, pr.transport(), fdir)
	waitCaughtUp(t, f, pr.heads())
	f.Stop()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	// The ex-follower takes writes of its own (a split brain, a botched
	// manual promotion): its log is now ahead of the primary's.
	rogue, err := durable.Open(fdir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, rogue, 72, 50)
	if err := rogue.Close(); err != nil {
		t.Fatal(err)
	}

	// Asking the primary to tail past its head is a divergence error...
	_, err = pr.transport().Tail(context.Background(), 0, pr.heads()[0]+10)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("tail past head: %v, want ErrDiverged", err)
	}

	// ...and Bootstrap detects it, wipes, and re-seeds from the
	// primary: the rogue history is gone, the primary's is authority.
	node2, f2 := startFollower(t, pr.transport(), fdir)
	defer node2.Close()
	defer f2.Stop()
	waitCaughtUp(t, f2, pr.heads())
	underRLock(f2, func() { compareStores(t, pr.store(), node2.Store()) })
}

func TestPromoteLiftsFenceAndAcceptsWrites(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 81, 200)

	fdir := t.TempDir()
	node, f := startFollower(t, pr.transport(), fdir)
	waitCaughtUp(t, f, pr.heads())

	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if f.ReadOnly() {
		t.Fatal("promoted follower must not be read-only")
	}
	// The promoted node takes writes directly.
	before := node.Store().NumStories()
	if _, err := node.Store().Submit(5, "first-post-failover", 0.5, 999); err != nil {
		t.Fatal(err)
	}
	if got := node.Store().NumStories(); got != before+1 {
		t.Fatalf("stories after failover write: %d, want %d", got, before+1)
	}
	// And survives a restart as a normal primary store.
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := durable.Open(fdir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.NumStories(); got != before+1 {
		t.Fatalf("stories after reopen: %d, want %d", got, before+1)
	}
}

func TestPromoteSharded(t *testing.T) {
	pr := startPrimary(t, 3)
	mutate(t, pr.store(), 91, 300)

	fdir := t.TempDir()
	node, f := startFollower(t, pr.transport(), fdir)
	defer node.Close()
	waitCaughtUp(t, f, pr.heads())

	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	underRLock(f, func() { compareStoresSharded(t, pr.store(), node.Store()) })
	if _, err := node.Store().Submit(5, "post-failover", 0.5, 999); err != nil {
		t.Fatal(err)
	}
}

// electableFollower runs a follower that also serves its own repl
// endpoints, so ElectAndPromote can rank and promote it.
func electableFollower(t testing.TB, tr Transport, dir string) (*Node, *Follower, *httptest.Server) {
	t.Helper()
	node, err := Bootstrap(context.Background(), tr, dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(node.Target, tr, followerOptions(dir))
	src := &Source{
		Shards: node.SourceShards(),
		Role: func() string {
			if f.ReadOnly() {
				return "follower"
			}
			return "primary"
		},
		Promote: f.Promote,
	}
	mux := http.NewServeMux()
	mux.Handle("/repl/v1/", http.StripPrefix("/repl/v1", src.Handler()))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return node, f, ts
}

func TestElectAndPromotePicksHighestLSN(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 101, 150)

	// Follower A bootstraps early and never tails: it is frozen at the
	// checkpoint LSN. Follower B replicates to the head.
	dirA, dirB := t.TempDir(), t.TempDir()
	nodeA, fA, tsA := electableFollower(t, pr.transport(), dirA)
	defer nodeA.Close()
	defer fA.Stop()

	mutate(t, pr.store(), 102, 200)
	nodeB, fB, tsB := electableFollower(t, pr.transport(), dirB)
	defer nodeB.Close()
	defer fB.Stop()
	fB.Start()
	waitCaughtUp(t, fB, pr.heads())

	if nodeA.Target.AppliedLSN(0) >= nodeB.Target.AppliedLSN(0) {
		t.Fatalf("test setup: A (%d) should be behind B (%d)",
			nodeA.Target.AppliedLSN(0), nodeB.Target.AppliedLSN(0))
	}

	winner, err := ElectAndPromote(context.Background(), []string{tsA.URL, tsB.URL})
	if err != nil {
		t.Fatal(err)
	}
	if winner != tsB.URL {
		t.Fatalf("elected %s, want %s (the higher LSN)", winner, tsB.URL)
	}
	if fB.ReadOnly() {
		t.Fatal("winner was not promoted")
	}
	if !fA.ReadOnly() {
		t.Fatal("loser must stay fenced")
	}

	// A second election is idempotent: the standing primary wins.
	winner2, err := ElectAndPromote(context.Background(), []string{tsA.URL, tsB.URL})
	if err != nil {
		t.Fatal(err)
	}
	if winner2 != tsB.URL {
		t.Fatalf("re-election picked %s, want %s", winner2, tsB.URL)
	}
}

func TestSourceStatusEndpoint(t *testing.T) {
	pr := startPrimary(t, 2)
	st, err := pr.transport().Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || st.Shards != 2 || len(st.Applied) != 2 {
		t.Fatalf("status = %+v", st)
	}
	if got, want := st.Applied, pr.heads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("applied = %v, want %v", got, want)
	}
	if st.TotalApplied() != st.Applied[0]+st.Applied[1] {
		t.Fatalf("total applied = %d", st.TotalApplied())
	}
}

func TestSeedReplicaRefusesExisting(t *testing.T) {
	pr := startPrimary(t, 1)
	ctx := context.Background()
	g, err := pr.transport().Graph(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := pr.transport().Checkpoint(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "seed")
	if err := durable.SeedReplica(dir, g, ck); err != nil {
		t.Fatal(err)
	}
	if err := durable.SeedReplica(dir, g, ck); err == nil {
		t.Fatal("re-seeding an existing store must refuse")
	}
	// The seeded directory opens like any data directory.
	s, err := durable.Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumStories() != pr.store().NumStories() {
		t.Fatalf("seeded stories = %d, want %d", s.NumStories(), pr.store().NumStories())
	}
}
