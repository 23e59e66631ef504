package shard

import (
	"reflect"
	"testing"

	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/rng"
)

func testPolicy() digg.PromotionPolicy {
	return &digg.ClassicPromotion{VoteThreshold: 5, Window: digg.Day}
}

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.PreferentialAttachment(rng.New(11), 400, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mutate drives n mixed commands through a store: submissions, votes
// (including deliberate duplicates), and occasional compactions. A
// bare durable store goes in through logged.
func mutate(t testing.TB, s interface {
	shardWriter
	NumStories() int
}, seed uint64, n int) {
	t.Helper()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0, 1:
			if _, err := s.Submit(digg.UserID(r.Intn(400)), "story", 0.6, digg.Minutes(100+i)); err != nil {
				t.Fatalf("submit: %v", err)
			}
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

// compareStores asserts two stores are observably identical across
// the digg.Store query surface (generation excluded: composite
// generations count different histories than a source platform's).
func compareStores(t testing.TB, want, got digg.Store) {
	t.Helper()
	compareStoresOpt(t, want, got, true)
}

// compareViews is compareStores minus per-story version counters:
// FromPlatform re-installs stories, which resets their version
// counters exactly like corpus installation does on a single
// platform, so versions only agree between identical command
// histories.
func compareViews(t testing.TB, want, got digg.Store) {
	t.Helper()
	compareStoresOpt(t, want, got, false)
}

func compareStoresOpt(t testing.TB, want, got digg.Store, versions bool) {
	t.Helper()
	if want.NumStories() != got.NumStories() {
		t.Fatalf("stories: got %d, want %d", got.NumStories(), want.NumStories())
	}
	for i := 0; i < want.NumStories(); i++ {
		id := digg.StoryID(i)
		if !reflect.DeepEqual(mustStory(t, want, id), mustStory(t, got, id)) {
			t.Fatalf("story %d differs:\n got %+v\nwant %+v", i, mustStory(t, got, id), mustStory(t, want, id))
		}
		if versions && want.StoryVersion(id) != got.StoryVersion(id) {
			t.Fatalf("story %d version: got %d, want %d", i, got.StoryVersion(id), want.StoryVersion(id))
		}
	}
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
	if !reflect.DeepEqual(want.TopUsers(100), got.TopUsers(100)) {
		t.Fatal("top users differ")
	}
	if !reflect.DeepEqual(want.Ranks(), got.Ranks()) {
		t.Fatal("ranks differ")
	}
	if !reflect.DeepEqual(want.Upcoming(10_000, 0), got.Upcoming(10_000, 0)) {
		t.Fatal("upcoming queue differs")
	}
}

// TestShardedMatchesSingle drives the identical command sequence
// through a single platform and a 4-way sharded store: every query
// must agree, including the composite generation (each applied
// command increments exactly one shard).
func TestShardedMatchesSingle(t *testing.T) {
	g := testGraph(t)
	single := digg.NewPlatform(g, testPolicy())
	sharded := New(g, testPolicy(), 4)

	// Seed both with submissions so votes have targets.
	for i := 0; i < 10; i++ {
		if _, err := single.Submit(digg.UserID(i), "seed", 0.5, digg.Minutes(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Submit(digg.UserID(i), "seed", 0.5, digg.Minutes(i)); err != nil {
			t.Fatal(err)
		}
	}
	mutate(t, single, 7, 400)
	mutate(t, sharded, 7, 400)

	compareStores(t, single, sharded)
	if single.Generation() != sharded.Generation() {
		t.Fatalf("generation: sharded %d, single %d", sharded.Generation(), single.Generation())
	}
	gens := sharded.ShardGenerations(nil)
	if len(gens) != 4 {
		t.Fatalf("shard generations: %v", gens)
	}
	var sum uint64
	for _, gg := range gens {
		sum += gg
	}
	if sum != sharded.Generation() {
		t.Fatalf("generation %d != shard sum %d", sharded.Generation(), sum)
	}
}

// TestFromPlatformPreservesViews splits a populated platform and
// checks serving output is unchanged by the split.
func TestFromPlatformPreservesViews(t *testing.T) {
	g := testGraph(t)
	p := digg.NewPlatform(g, testPolicy())
	for i := 0; i < 10; i++ {
		if _, err := p.Submit(digg.UserID(i), "seed", 0.5, digg.Minutes(i)); err != nil {
			t.Fatal(err)
		}
	}
	mutate(t, p, 9, 300)

	// FromPlatform adopts the source's story objects, so the reference
	// for post-split writes must be an independent deep copy. The split
	// re-installs stories, which leaves them compacted (corpus-install
	// parity), so the reference compacts its copies to match.
	ref, err := digg.RestorePlatform(p.Graph, p.Policy, p.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ref.NumStories(); i++ {
		if err := ref.CompactStory(digg.StoryID(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := FromPlatform(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	compareViews(t, ref, s)

	// The split store keeps accepting the same writes with the same
	// results.
	mutate(t, ref, 10, 100)
	mutate(t, s, 10, 100)
	compareViews(t, ref, s)
}

func TestFromPlatformRejectsShardedSource(t *testing.T) {
	g := testGraph(t)
	p := digg.NewShardPlatform(g, testPolicy(), 1, 2)
	if _, err := FromPlatform(p, 2); err == nil {
		t.Fatal("sharded source accepted")
	}
}

// TestBulkMatchesSerial applies the same ops through DiggMany /
// SubmitMany on a sharded store, and on a platform, and serially on a
// single platform; outcomes and final state must agree. Vote
// timestamps increase in op order so the deterministic (PromotedAt,
// ID) promotion merge matches the serial promotion order.
func TestBulkMatchesSerial(t *testing.T) {
	g := testGraph(t)
	single := digg.NewPlatform(g, testPolicy())
	bulk := []struct {
		name  string
		store digg.Store
	}{
		{"sharded", New(g, testPolicy(), 4)},
		{"platform", digg.NewPlatform(g, testPolicy())},
	}
	r := rng.New(21)

	subs := make([]digg.SubmitOp, 40)
	for i := range subs {
		u := digg.UserID(r.Intn(400))
		if i%11 == 3 {
			u = 40000 // invalid: exercises per-op rejection
		}
		subs[i] = digg.SubmitOp{User: u, Title: "bulk", Interest: 0.5, At: digg.Minutes(i)}
	}
	subWant := make([]digg.SubmitOutcome, len(subs))
	for i, op := range subs {
		st, err := single.Submit(op.User, op.Title, op.Interest, op.At)
		subWant[i] = digg.SubmitOutcome{Story: st, Err: err}
	}
	for _, b := range bulk {
		subOut := make([]digg.SubmitOutcome, len(subs))
		if err := b.store.SubmitMany(subs, subOut); err != nil {
			t.Fatal(err)
		}
		for i, want := range subWant {
			if (want.Err != nil) != (subOut[i].Err != nil) {
				t.Fatalf("%s submit %d: bulk err %v, single err %v", b.name, i, subOut[i].Err, want.Err)
			}
			if want.Err == nil && !reflect.DeepEqual(want.Story, subOut[i].Story) {
				t.Fatalf("%s submit %d: bulk %+v, single %+v", b.name, i, subOut[i].Story, want.Story)
			}
		}
	}

	diggs := make([]digg.DiggOp, 600)
	for i := range diggs {
		id := digg.StoryID(r.Intn(single.NumStories()))
		if i%37 == 5 {
			id = 99999 // unknown story: rejected before routing
		}
		diggs[i] = digg.DiggOp{Story: id, User: digg.UserID(r.Intn(400)), At: digg.Minutes(1000 + i)}
	}
	diggWant := make([]digg.DiggOutcome, len(diggs))
	for i, op := range diggs {
		res, err := single.Digg(op.Story, op.User, op.At)
		diggWant[i] = digg.DiggOutcome{Result: res, Err: err}
	}
	for _, b := range bulk {
		diggOut := make([]digg.DiggOutcome, len(diggs))
		if err := b.store.DiggMany(diggs, diggOut); err != nil {
			t.Fatal(err)
		}
		for i, want := range diggWant {
			if (want.Err != nil) != (diggOut[i].Err != nil) {
				t.Fatalf("%s digg %d: bulk err %v, single err %v", b.name, i, diggOut[i].Err, want.Err)
			}
			if want.Err == nil && want.Result != diggOut[i].Result {
				t.Fatalf("%s digg %d: bulk %+v, single %+v", b.name, i, diggOut[i].Result, want.Result)
			}
		}
		compareStores(t, single, b.store)
		if single.Generation() != b.store.Generation() {
			t.Fatalf("%s generation: bulk %d, single %d", b.name, b.store.Generation(), single.Generation())
		}
	}
}

// TestStatsAccount checks the per-shard counters add up to the work
// routed at them.
func TestStatsAccount(t *testing.T) {
	g := testGraph(t)
	s := New(g, testPolicy(), 3)
	for i := 0; i < 9; i++ {
		if _, err := s.Submit(digg.UserID(i), "s", 0.5, digg.Minutes(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats := s.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats: %v", stats)
	}
	for i, st := range stats {
		if st.Shard != i || st.Stories != 3 || st.Writes != 3 {
			t.Fatalf("shard %d stats: %+v", i, st)
		}
	}
}

func TestStoryRouting(t *testing.T) {
	g := testGraph(t)
	s := New(g, testPolicy(), 4)
	for i := 0; i < 13; i++ {
		st, err := s.Submit(digg.UserID(i), "s", 0.5, digg.Minutes(i))
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != digg.StoryID(i) {
			t.Fatalf("story %d minted id %d", i, st.ID)
		}
	}
	if _, err := s.Story(13); err == nil {
		t.Fatal("out-of-range story served")
	}
	if _, err := s.Story(-1); err == nil {
		t.Fatal("negative story served")
	}
	if v := s.StoryVersion(5); v == 0 {
		t.Fatal("story 5 has no version")
	}
}
