package repl

// chaos_test.go drives replication through injected faults: frames
// dropped, duplicated and cut mid-byte; network partitions; follower
// kill/restart with no shutdown hook; primary failover with a diverged
// ex-primary rejoining. Every scenario ends with a byte-exact (or, for
// sharded stores, content-exact) comparison against the primary. The
// CI replication job runs this file under -race.

import (
	"context"
	"os"
	"testing"
	"time"

	"diggsim/internal/shard"
)

func TestChaosFaultyTransport(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 201, 200)

	ft := &FaultTransport{Inner: pr.transport(), DropEvery: 7, DupEvery: 5, TruncateEvery: 11}
	fdir := t.TempDir()
	node, f := startFollower(t, ft, fdir)
	defer node.Close()
	defer f.Stop()

	// Keep writing while the stream is being mangled.
	for round := 0; round < 6; round++ {
		mutate(t, pr.store(), 202+uint64(round), 150)
		time.Sleep(5 * time.Millisecond)
	}
	waitCaughtUp(t, f, pr.heads())
	underRLock(f, func() { compareStores(t, pr.store(), node.Store()) })
	if err := f.Err(); err != nil {
		t.Fatalf("faults must be survivable, got fatal: %v", err)
	}
}

func TestChaosFollowerKillRestart(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 211, 300)

	fdir := t.TempDir()
	node, f := startFollower(t, pr.transport(), fdir)
	waitCaughtUp(t, f, pr.heads())

	// Hard-kill the follower: tailers die, no checkpoint, no store
	// close, no WAL sync — the directory is whatever recovery finds.
	f.Stop()
	_ = node // leaked like a killed process's open files

	// The primary moves on while the follower is dead.
	mutate(t, pr.store(), 212, 400)

	// Restart from disk: recovery replays the follower's own WAL, the
	// stream resumes from its applied LSN, and the follower converges
	// to the primary's exact state.
	node2, f2 := startFollower(t, pr.transport(), fdir)
	defer node2.Close()
	defer f2.Stop()
	waitCaughtUp(t, f2, pr.heads())
	underRLock(f2, func() { compareStores(t, pr.store(), node2.Store()) })
}

func TestChaosPartition(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 221, 200)

	ft := &FaultTransport{Inner: pr.transport()}
	fdir := t.TempDir()
	node, f := startFollower(t, ft, fdir)
	defer node.Close()
	defer f.Stop()
	waitCaughtUp(t, f, pr.heads())

	// Cut the network. The primary keeps writing; the follower keeps
	// serving its applied state and its staleness grows.
	ft.Partitioned.Store(true)
	frozen := pr.heads()[0]
	mutate(t, pr.store(), 222, 200)
	time.Sleep(50 * time.Millisecond)
	if got := f.target.AppliedLSN(0); got > frozen {
		t.Fatalf("follower advanced to %d during the partition", got)
	}
	underRLock(f, func() {
		if node.Store().NumStories() == 0 {
			t.Fatal("follower stopped serving reads during the partition")
		}
	})
	if err := f.Err(); err != nil {
		t.Fatalf("a partition must not be fatal: %v", err)
	}

	// Heal. The follower reconnects from its applied LSN and converges.
	ft.Partitioned.Store(false)
	waitCaughtUp(t, f, pr.heads())
	underRLock(f, func() { compareStores(t, pr.store(), node.Store()) })
	if lagged := f.Staleness(); lagged > 10*time.Second {
		t.Fatalf("staleness did not recover after heal: %v", lagged)
	}
}

func TestChaosFailoverAndRejoin(t *testing.T) {
	prA := startPrimary(t, 1)
	mutate(t, prA.store(), 231, 250)

	// Follower B replicates A and serves its own repl endpoints.
	ftB := &FaultTransport{Inner: prA.transport()}
	dirB := t.TempDir()
	nodeB, fB, tsB := electableFollower(t, ftB, dirB)
	defer nodeB.Close()
	fB.Start()
	waitCaughtUp(t, fB, prA.heads())

	// Partition B, then let A take writes B will never see: those
	// records exist only in A's log.
	ftB.Partitioned.Store(true)
	mutate(t, prA.store(), 232, 120)
	aOnlyHead := prA.heads()[0]

	// A dies. Failover: B is promoted and starts taking writes.
	prA.stopServe()
	if err := prA.sharded.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fB.Promote(); err != nil {
		t.Fatal(err)
	}
	if fB.ReadOnly() {
		t.Fatal("promoted follower still fenced")
	}
	mutate(t, nodeB.Store(), 233, 120)

	// A comes back and rejoins as a follower of B. Its log is ahead of
	// B's shared history (the partition-era records), so bootstrap
	// detects divergence, wipes, and re-seeds from B.
	trA := &HTTPTransport{Base: tsB.URL}
	nodeA2, err := Bootstrap(context.Background(), trA, prA.dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA2.Close()
	if got := nodeA2.Target.AppliedLSN(0); got > aOnlyHead && got <= nodeB.Target.AppliedLSN(0) {
		// fine: seeded from B's checkpoint somewhere at or below B's head
	} else if got > nodeB.Target.AppliedLSN(0) {
		t.Fatalf("rejoined A still ahead of B: %d > %d", got, nodeB.Target.AppliedLSN(0))
	}
	fA2 := NewFollower(nodeA2.Target, trA, followerOptions(prA.dir))
	fA2.Start()
	defer fA2.Stop()
	waitCaughtUp(t, fA2, []uint64{nodeB.Target.AppliedLSN(0)})
	underRLock(fA2, func() {
		underRLock(fB, func() { compareStores(t, nodeB.Store(), nodeA2.Store()) })
	})

	// The demoted node is fenced; the promoted one is not.
	fA2readOnly := fA2.ReadOnly()
	if !fA2readOnly {
		t.Fatal("rejoined ex-primary must be a fenced follower")
	}
}

func TestChaosShardedFaultsAndKill(t *testing.T) {
	pr := startPrimary(t, 3)
	mutate(t, pr.store(), 241, 300)

	ft := &FaultTransport{Inner: pr.transport(), DropEvery: 13, DupEvery: 9, TruncateEvery: 17}
	fdir := t.TempDir()
	node, f := startFollower(t, ft, fdir)

	mutate(t, pr.store(), 242, 300)
	waitCaughtUp(t, f, pr.heads())

	// Kill with no shutdown hook, write more, restart, converge.
	f.Stop()
	_ = node
	mutate(t, pr.store(), 243, 300)
	node2, f2 := startFollower(t, ft, fdir)
	defer node2.Close()
	defer f2.Stop()
	mutate(t, pr.store(), 244, 200)
	waitCaughtUp(t, f2, pr.heads())
	underRLock(f2, func() { compareStoresSharded(t, pr.store(), node2.Store()) })
	if err := f2.Err(); err != nil {
		t.Fatalf("fatal after sharded chaos: %v", err)
	}
}

// TestChaosFollowerCheckpointsIndependently exercises the follower's
// own durability maintenance: with automatic checkpoints enabled it
// prunes its WAL on its own schedule, and a restart replays only its
// tail while the stream resumes cleanly.
func TestChaosFollowerCheckpointsIndependently(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 251, 300)

	fdir := t.TempDir()
	opts := testOpts()
	opts.CheckpointEvery = time.Nanosecond // checkpoint on every write burst
	node, err := Bootstrap(context.Background(), pr.transport(), fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(node.Target, pr.transport(), followerOptions(fdir))
	f.Start()
	mutate(t, pr.store(), 252, 300)
	waitCaughtUp(t, f, pr.heads())
	underRLock(f, func() { compareStores(t, pr.store(), node.Store()) })

	f.Stop()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	// The follower's directory recovers standalone — checkpoints are
	// real checkpoints.
	s, err := shard.Open(fdir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	compareStores(t, pr.store(), s)
}

func TestChaosStateFileSurvivesKill(t *testing.T) {
	pr := startPrimary(t, 1)
	mutate(t, pr.store(), 261, 200)

	fdir := t.TempDir()
	node, f := startFollower(t, pr.transport(), fdir)
	waitCaughtUp(t, f, pr.heads())
	// Wait out the state-write throttle so at least one snapshot lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(fdir + "/" + StateFileName); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("repl-state.json never written")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop()
	_ = node

	st, err := ReadState(fdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 1 || !st.ReadOnly {
		t.Fatalf("state = %+v", st)
	}
	if st.Shards[0].AppliedLSN == 0 {
		t.Fatal("state file recorded no progress")
	}
}
