package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/rng"
	"diggsim/internal/wal"
)

// testPolicy is the promotion policy every durable test runs under;
// replay must re-execute votes through the same policy.
func testPolicy() digg.PromotionPolicy {
	return &digg.ClassicPromotion{VoteThreshold: 5, Window: digg.Day}
}

// newTestPlatform builds a platform with pre-durable history: some
// organic stories plus one installed pre-simulated story, mirroring
// how diggd wraps a pregenerated corpus.
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
	installed := &digg.Story{
		ID: digg.StoryID(p.NumStories()), Title: "installed", Submitter: 3,
		SubmittedAt: 50, Promoted: true, PromotedAt: 70, Interest: 0.9,
		Votes: []digg.Vote{{Voter: 3, At: 50}, {Voter: 9, At: 60, InNetwork: true}},
	}
	if err := p.InstallStory(installed); err != nil {
		t.Fatal(err)
	}
	return p
}

// mutate drives n mixed commands through the store, including
// rejections (double votes) and a compaction, and returns how many
// commands were issued in total. Reads go to the store's platform.
func mutate(t testing.TB, s *Store, seed uint64, n int) int {
	t.Helper()
	p := s.Unwrap()
	r := rng.New(seed)
	issued := 0
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0:
			if _, err := s.Submit(digg.UserID(r.Intn(400)), "live-story", 0.6, digg.Minutes(100+i)); err != nil {
				t.Fatalf("submit: %v", err)
			}
		case 1:
			// Deliberate duplicate vote on story 0's submitter: usually
			// rejected, exercising the rejected-command replay path.
			_, _ = s.Digg(0, mustStory(t, p, 0).Submitter, digg.Minutes(100+i))
		case 2:
			// Occasional compaction; later diggs on the story reject.
			if err := s.CompactStory(digg.StoryID(r.Intn(p.NumStories()))); err != nil {
				t.Fatalf("compact: %v", err)
			}
		default:
			_, _ = s.Digg(digg.StoryID(r.Intn(p.NumStories())), digg.UserID(r.Intn(400)), digg.Minutes(100+i))
		}
		issued++
	}
	return issued
}

func mustStory(t testing.TB, s digg.Store, id digg.StoryID) *digg.Story {
	t.Helper()
	st, err := s.Story(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// compareStores asserts two stores are observably identical across the
// whole digg.Store query surface.
func compareStores(t testing.TB, want, got digg.Store) {
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

// clonePlatform deep-copies a platform through the state codec — the
// capture half of every fidelity assertion.
func clonePlatform(t testing.TB, p *digg.Platform) *digg.Platform {
	t.Helper()
	q, err := digg.RestorePlatform(p.Graph, p.Policy, p.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCleanShutdownReplaysZeroRecords(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, []byte(`{"seed":11}`), Options{
		Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, s, 21, 200)
	want := clonePlatform(t, p)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Recovery(); got.Replayed != 0 {
		t.Fatalf("clean shutdown replayed %d records, want 0", got.Replayed)
	}
	compareStores(t, want, s2.Unwrap())
	if string(s2.Genesis()) != `{"seed":11}` {
		t.Fatalf("genesis = %q", s2.Genesis())
	}
}

func TestHardStopReplaysTail(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, nil, Options{
		Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	issued := mutate(t, s, 22, 150)
	want := clonePlatform(t, p)
	// Hard stop: no checkpoint, no close. The files are all on disk
	// (SyncAlways); the abandoned writer is simply never used again.

	s2, err := Open(dir, Options{Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Replayed != issued {
		t.Fatalf("replayed %d records, want %d", rec.Replayed, issued)
	}
	if rec.Rejected == 0 {
		t.Fatal("expected some replayed commands to be rejected (duplicate votes)")
	}
	compareStores(t, want, s2.Unwrap())

	// The recovered store keeps accepting writes and another recovery
	// still matches.
	mutate(t, s2, 23, 50)
	want2 := clonePlatform(t, s2.Unwrap())
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	compareStores(t, want2, s3.Unwrap())
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, nil, Options{
		Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, s, 31, 100)
	want := clonePlatform(t, p)
	// One more command whose record we then tear mid-write.
	if _, err := s.Submit(5, "torn-away", 0.5, 999); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	if err := os.Truncate(last.Path, last.Size-3); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.TailTruncated {
		t.Fatal("torn tail not reported")
	}
	if rec.Replayed != 100 {
		t.Fatalf("replayed %d, want 100 (the torn record must not apply)", rec.Replayed)
	}
	compareStores(t, want, s2.Unwrap())
}

func TestMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, nil, Options{
		Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1, SegmentSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, s, 41, 300)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(mid.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Policy: testPolicy()}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// TestLostLeadingSegmentFailsOpen deletes the first segment of a log
// that recovery must replay from its checkpoint: the records between
// the checkpoint and the first retained segment are gone, so Open and
// Inspect must report corruption instead of replaying around the hole.
func TestLostLeadingSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, newTestPlatform(t), nil, Options{
		Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1, SegmentSize: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, s, 43, 300)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 || segs[0].FirstLSN != 1 {
		t.Fatalf("want several segments from Create's checkpoint at lsn 1, got %+v", segs)
	}
	if err := os.Remove(segs[0].Path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Policy: testPolicy()}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(info.Corrupt, wal.ErrCorrupt) {
		t.Fatalf("Inspect corrupt = %v, want ErrCorrupt", info.Corrupt)
	}
	// A reader asked for the whole log still starts at the oldest
	// retained segment: the hole is recovery's to judge.
	r, err := wal.OpenReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rec, err := r.Next(); err != nil || rec.LSN != segs[1].FirstLSN {
		t.Fatalf("first record = %+v, %v; want lsn %d", rec, err, segs[1].FirstLSN)
	}
}

func TestCheckpointPrunesLog(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, nil, Options{
		Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1, SegmentSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, s, 51, 300)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutate(t, s, 52, 40)
	want := clonePlatform(t, p)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 1 {
		t.Fatalf("%d checkpoint files, want 1 (older pruned)", len(cks))
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].FirstLSN == 0 {
		t.Fatal("segments below the checkpoint were not truncated")
	}

	s2, err := Open(dir, Options{Policy: testPolicy(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.Replayed != 40 {
		t.Fatalf("replayed %d records, want only the 40 post-checkpoint ones", rec.Replayed)
	}
	compareStores(t, want, s2.Unwrap())
}

func TestBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, nil, Options{
		Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A batch of mixed commands, including rejects, commits as one
	// append; results are visible inside the batch.
	s.BeginBatch()
	st, err := s.Submit(7, "batched", 0.5, 200)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 30; v++ {
		_, _ = s.Digg(st.ID, digg.UserID(v%400), 201)
	}
	if got := s.Unwrap().StoryVersion(st.ID); got < 2 {
		t.Fatalf("reads inside the batch must see its writes; version %d", got)
	}
	if err := s.EndBatch(); err != nil {
		t.Fatal(err)
	}
	want := clonePlatform(t, p)

	s2, err := Open(dir, Options{Policy: testPolicy(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	compareStores(t, want, s2.Unwrap())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, nil, Options{Policy: testPolicy(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists = false on a populated data dir")
	}
	if _, err := Create(dir, p, nil, Options{}); err == nil {
		t.Fatal("Create over an existing store must fail")
	}
}

func TestNoCheckpointIsHardError(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, nil, Options{Policy: testPolicy(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range cks {
		if err := os.Remove(ck); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, Options{Policy: testPolicy()}); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Open = %v, want ErrNoCheckpoint", err)
	}
}

// TestInterruptedCreateIsCleanedUp reproduces a crash inside Create's
// window — graph file and genesis record written, no checkpoint yet.
// The debris must not count as a store, and a retried Create must
// clean it up and succeed; otherwise the data directory would refuse
// every later boot (Open has no checkpoint, Create sees leftovers).
func TestInterruptedCreateIsCleanedUp(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	if err := writeGraphFile(dir, p.SocialGraph()); err != nil {
		t.Fatal(err)
	}
	r, err := wal.OpenReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("fresh log: %v, want io.EOF", err)
	}
	w, err := wal.OpenWriter(r, 0, wal.Options{Sync: wal.SyncOS})
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(RecGenesis, []byte("aborted")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if Exists(dir) {
		t.Fatal("interrupted-Create debris must not count as a recoverable store")
	}
	s, err := Create(dir, p, []byte("fresh"), Options{Policy: testPolicy(), CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("Create over interrupted-Create debris: %v", err)
	}
	if string(s.Genesis()) != "fresh" {
		t.Fatalf("genesis = %q, want the retried Create's", s.Genesis())
	}
	mutate(t, s, 71, 20)
	want := clonePlatform(t, p)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("a store with command records must count as existing")
	}
	s2, err := Open(dir, Options{Policy: testPolicy(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if string(s2.Genesis()) != "fresh" {
		t.Fatalf("recovered genesis = %q", s2.Genesis())
	}
	compareStores(t, want, s2.Unwrap())
}

// TestStaleLogIsDropped covers a log that ends below its checkpoint's
// LSN, which SyncOS allows: the checkpoint is fsynced, the appends
// before it may not be. Open must recover from the checkpoint, drop the
// stale segments and append from the checkpoint LSN, so new records
// never reuse LSNs that the next recovery would skip.
func TestStaleLogIsDropped(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1}
	p := newTestPlatform(t)
	s, err := Create(dir, p, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, s, 81, 30)
	// Keep the log as it stood after those 30 records: the durable
	// tail a machine crash could leave behind.
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale := make(map[string][]byte)
	for _, seg := range segs {
		if stale[seg.Path], err = os.ReadFile(seg.Path); err != nil {
			t.Fatal(err)
		}
	}
	mutate(t, s, 82, 20)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckLSN := s.AppliedLSN()
	want := clonePlatform(t, p)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wal.RemoveSegments(dir); err != nil {
		t.Fatal(err)
	}
	for path, data := range stale {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open over a stale log: %v", err)
	}
	if rec := s2.Recovery(); rec.CheckpointLSN != ckLSN || rec.Replayed != 0 {
		t.Fatalf("recovery %+v, want checkpoint lsn %d and nothing replayed", rec, ckLSN)
	}
	compareStores(t, want, s2.Unwrap())
	if got := s2.AppliedLSN(); got != ckLSN {
		t.Fatalf("log resumes at lsn %d, want the checkpoint's %d", got, ckLSN)
	}
	if segs, err := wal.ListSegments(dir); err != nil || len(segs) != 1 || segs[0].FirstLSN != ckLSN {
		t.Fatalf("segments after Open: %+v, %v; want one starting at %d", segs, err, ckLSN)
	}
	mutate(t, s2, 83, 10)
	want2 := clonePlatform(t, s2.Unwrap())
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec := s3.Recovery(); rec.Replayed != 10 {
		t.Fatalf("replayed %d records, want the 10 appended after the checkpoint", rec.Replayed)
	}
	compareStores(t, want2, s3.Unwrap())
}

// TestCheckpointDecodeRejectsJunk re-checksums every truncation of a
// valid checkpoint file and feeds it through decodeCheckpoint: each must
// return an error — never panic — or newestCheckpoint's fall-back to
// older files could not run. A CRC-repaired graph file with an absurd
// edge count must likewise error instead of allocating.
func TestCheckpointDecodeRejectsJunk(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, []byte("genesis"), Options{Policy: testPolicy(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := listCheckpoints(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("checkpoints: %v, %v", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data)-4; cut += 11 {
		// Truncate the body and append a recomputed CRC so only the
		// structural checks can reject it.
		cand := append([]byte(nil), data[:cut]...)
		cand = binary.LittleEndian.AppendUint32(cand, crc32.Checksum(cand, castagnoli))
		if _, err := decodeCheckpoint(cand, "junk"); err == nil {
			t.Fatalf("CRC-repaired truncation at %d decoded without error", cut)
		}
	}

	// An invalid newer checkpoint must fall back to the older valid one.
	bogus := append([]byte(nil), data[:len(data)/2]...)
	bogus = binary.LittleEndian.AppendUint32(bogus, crc32.Checksum(bogus, castagnoli))
	if err := os.WriteFile(filepath.Join(dir, checkpointName(999999)), bogus, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, path, _, err := newestCheckpoint(dir)
	if err != nil {
		t.Fatalf("fall-back to older checkpoint failed: %v", err)
	}
	if path != paths[0] || ck.LSN != 1 {
		t.Fatalf("picked %s lsn %d, want the older valid checkpoint", path, ck.LSN)
	}

	// Graph file with edge count 2^63 and a valid CRC: the bound must
	// reject it without attempting the allocation.
	g := append([]byte(nil), graphMagic...)
	g = binary.AppendUvarint(g, 100)
	g = binary.AppendUvarint(g, 1<<63)
	g = binary.LittleEndian.AppendUint32(g, crc32.Checksum(g, castagnoli))
	gdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(gdir, graphFile), g, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readGraphFile(gdir); err == nil {
		t.Fatal("absurd edge count decoded without error")
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	p := newTestPlatform(t)
	s, err := Create(dir, p, []byte(`{"seed":9}`), Options{
		Policy: testPolicy(), Sync: wal.SyncAlways, CheckpointEvery: -1, SegmentSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, s, 61, 120)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Segments) == 0 {
		t.Fatal("no segments reported")
	}
	// Create's checkpoint at LSN 1 prunes the genesis record from the
	// log; the genesis blob lives in the checkpoint (asserted below).
	if info.RecordsByType["genesis"] != 0 {
		t.Fatalf("genesis records = %d, want 0 (pruned by Create's checkpoint)", info.RecordsByType["genesis"])
	}
	if info.RecordsByType["digg"] == 0 || info.RecordsByType["submit"] == 0 {
		t.Fatalf("command records missing: %v", info.RecordsByType)
	}
	if info.Checkpoint == nil {
		t.Fatalf("no checkpoint reported: %v", info.CheckpointErr)
	}
	if info.Checkpoint.LSN != 1 {
		t.Fatalf("checkpoint lsn %d, want 1 (Create's)", info.Checkpoint.LSN)
	}
	if string(info.Checkpoint.Genesis) != `{"seed":9}` {
		t.Fatalf("genesis = %q", info.Checkpoint.Genesis)
	}
	if info.ReplayRecords != 120 {
		t.Fatalf("replay span %d records, want 120", info.ReplayRecords)
	}
	// Per-segment record counts must account for every record (the
	// 1024-byte SegmentSize forces several segments here).
	if len(info.Segments) < 2 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(info.Segments))
	}
	perSeg, byType := 0, 0
	for _, s := range info.Segments {
		perSeg += s.Records
	}
	for _, n := range info.RecordsByType {
		byType += n
	}
	if perSeg != byType || perSeg != int(info.EndLSN-info.FirstLSN) {
		t.Fatalf("per-segment counts %d != by-type %d != span %d",
			perSeg, byType, info.EndLSN-info.FirstLSN)
	}
	if info.Torn || info.Corrupt != nil {
		t.Fatalf("healthy log reported torn=%v corrupt=%v", info.Torn, info.Corrupt)
	}
	if s := info.String(); len(s) == 0 {
		t.Fatal("empty report")
	}
}
