package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diggsim/internal/dataset"
	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/live"
	"diggsim/internal/wal"
)

// liveSteppedStore creates an n-shard store from a SmallConfig corpus
// in dir and live-steps it for a sim-day at 2 sim-minutes a step.
// The stepper advances story by story, so a shard applies some
// promotions out of time order.
func liveSteppedStore(t *testing.T, dir string, n int) *Store {
	t.Helper()
	cfg := dataset.SmallConfig()
	cfg.Seed = 7
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := durable.Options{Policy: cfg.Policy, Sync: wal.SyncOS, CheckpointEvery: -1}
	s, err := Create(dir, ds.Platform, n, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := live.NewService(s, live.Config{Seed: 8, StartAt: cfg.SnapshotAt, Agent: cfg.Agent})
	if err != nil {
		t.Fatal(err)
	}
	for now := cfg.SnapshotAt; now < cfg.SnapshotAt+digg.Day; {
		now += 2
		if err := svc.StepTo(now); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// outOfTimeOrder counts the promotions a shard applied earlier in time
// than the promotion before them.
func outOfTimeOrder(p *digg.Platform) int {
	ids, n := p.PromotedIDs(), 0
	for k := 1; k < len(ids); k++ {
		prev, _ := p.Story(ids[k-1])
		cur, _ := p.Story(ids[k])
		if cur.PromotedAt < prev.PromotedAt {
			n++
		}
	}
	return n
}

// TestOpenAndFollowerAgreeOnPromotionOrder pins the one ordering rule:
// a restarted store (Open) and a follower (OpenFollower) fold the same
// directory into the same promotion order, and with one shard that is
// the running store's order too.
func TestOpenAndFollowerAgreeOnPromotionOrder(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			s := liveSteppedStore(t, dir, n)
			late := 0
			for _, p := range s.plats {
				late += outOfTimeOrder(p)
			}
			if late == 0 {
				t.Fatal("test setup: no shard promoted out of time order")
			}
			running := append([]digg.StoryID(nil), s.PromotedIDs()...)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			opts := durable.Options{Policy: dataset.SmallConfig().Policy, Sync: wal.SyncOS, CheckpointEvery: -1}
			opened := reopenOrder(t, Open, dir, opts)
			if got := reopenOrder(t, OpenFollower, dir, opts); !reflect.DeepEqual(got, opened) {
				t.Fatalf("OpenFollower differs from Open at %d of %d positions", mismatches(got, opened), len(opened))
			}
			if n == 1 && !reflect.DeepEqual(opened, running) {
				t.Fatalf("Open differs from the running store at %d of %d positions",
					mismatches(opened, running), len(running))
			}
		})
	}
}

// reopenOrder opens dir with open and returns its promotion order.
func reopenOrder(t *testing.T, open func(string, durable.Options) (*Store, error), dir string, opts durable.Options) []digg.StoryID {
	t.Helper()
	s, err := open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return append([]digg.StoryID(nil), s.PromotedIDs()...)
}

// logged drives a bare durable store through mutate: commands go
// through its log, reads to its platform.
type logged struct{ *durable.Store }

func (l logged) NumStories() int { return l.Unwrap().NumStories() }

func mismatches(a, b []digg.StoryID) int {
	n := 0
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			n++
		}
	}
	if len(b) > len(a) {
		n += len(b) - len(a)
	}
	return n
}

// TestOneShardLayout pins the one-shard layout: the shard lives at the
// root of the data directory, which is exactly an unsharded durable
// store's directory.
func TestOneShardLayout(t *testing.T) {
	src := newSourcePlatform(t, 81)
	dir := t.TempDir()
	ds, err := durable.Create(dir, src, []byte(`{"seed":81}`), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, logged{ds}, 82, 200)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := durable.Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Close(); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(string, durable.Options) (*Store, error){
		"Open": Open, "OpenFollower": OpenFollower,
	} {
		s, err := open(dir, testOpts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.ShardCount() != 1 || string(s.Genesis()) != `{"seed":81}` {
			t.Fatalf("%s: %d shards, genesis %q", name, s.ShardCount(), s.Genesis())
		}
		compareStores(t, want.Unwrap(), s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	created := t.TempDir()
	s, err := Create(created, newSourcePlatform(t, 81), 1, nil, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(created, shardDirName(0))); !os.IsNotExist(err) {
		t.Fatalf("one-shard Create wrote %s (stat err %v)", shardDirName(0), err)
	}
	if dirs, err := ShardDirs(created); err != nil || !reflect.DeepEqual(dirs, []string{created}) {
		t.Fatalf("ShardDirs = %v, %v; want the root", dirs, err)
	}
	if !Exists(created) {
		t.Fatal("one-shard store not found at the root")
	}
}

// TestDamagedLayoutIsRefused damages a data directory's layout two
// ways: a 3-shard store loses its middle shard directory, and a
// one-shard root store gains a shard-0000/ store beside it. Either
// directory still holds a store, so Open refuses it with the layout
// error and Create refuses to write a new store beside it.
func TestDamagedLayoutIsRefused(t *testing.T) {
	gapped := t.TempDir()
	s, err := Create(gapped, newSourcePlatform(t, 83), 3, nil, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(gapped, shardDirName(1))); err != nil {
		t.Fatal(err)
	}

	mixed := t.TempDir()
	for _, d := range []string{mixed, filepath.Join(mixed, shardDirName(0))} {
		s, err := Create(d, newSourcePlatform(t, 84), 1, nil, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for name, dir := range map[string]string{"gapped": gapped, "mixed": mixed} {
		if !Exists(dir) {
			t.Fatalf("%s: Exists = false for a directory holding stores", name)
		}
		if _, err := ShardDirs(dir); err == nil {
			t.Fatalf("%s: ShardDirs accepted the layout", name)
		}
		for opener, open := range map[string]func(string, durable.Options) (*Store, error){
			"Open": Open, "OpenFollower": OpenFollower,
		} {
			if s, err := open(dir, testOpts()); err == nil {
				s.Close()
				t.Fatalf("%s: %s accepted the layout", name, opener)
			}
		}
		before := listTree(t, dir)
		for _, n := range []int{1, 2, 3} {
			if s, err := Create(dir, newSourcePlatform(t, 85), n, nil, testOpts()); err == nil {
				s.Close()
				t.Fatalf("%s: Create with %d shards wrote over the directory", name, n)
			}
		}
		if after := listTree(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: refused Create changed the directory:\n%v\nwas\n%v", name, after, before)
		}
	}
}

// listTree returns every path under dir, relative to it.
func listTree(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, _ os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out = append(out, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
