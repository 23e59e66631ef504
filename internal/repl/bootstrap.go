package repl

// bootstrap.go turns an empty (or stale, or diverged) data directory
// into a caught-up follower store:
//
//  1. Ask the primary's /status for its shard count.
//  2. For each shard with no local store, fetch the primary's graph
//     and newest checkpoint and seed a normal durable data directory
//     from them (durable.SeedReplica) — the root of dir for a
//     one-shard primary, shard-NNNN/ below it otherwise.
//  3. Open the store with shard.OpenFollower, whatever the shard
//     count, so a follower restart and a fresh bootstrap are the same
//     code path, and the follower folds promotions into its merged
//     order by the rule every shard.Store uses.
//
// A directory that already holds a store is simply reopened (the
// stream resumes from its applied LSN) — unless some shard's log is
// AHEAD of the primary's, which means this node's history diverged
// (e.g. a demoted primary with unreplicated tail records rejoining).
// Divergence wipes the directory and re-seeds from scratch; the
// primary is the only truth. A directory whose layout differs from the
// primary's (a root store against N >= 2 shards, shard directories
// against one) is refused untouched.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// Node is a bootstrapped follower store.
type Node struct {
	// Sharded is the store, with as many shards as the primary.
	Sharded *shard.Store
	// Target is the store's replication-apply adapter.
	Target Target
	// Shards is the stream count.
	Shards int
}

// Store returns the node's read/serve surface.
func (n *Node) Store() digg.Store { return n.Sharded }

// Close closes the underlying store.
func (n *Node) Close() error { return n.Sharded.Close() }

// SourceShards returns the node's own streaming surface, so a
// follower can itself serve the replication endpoints (election reads
// status from them; a promoted follower starts streaming to the
// others without a restart).
func (n *Node) SourceShards() []SourceShard { return SourceShardsOf(n.Sharded) }

// SourceShardsOf returns the streaming surface of a durable store: one
// SourceShard per shard, over the shard's WAL directory and head.
func SourceShardsOf(s *shard.Store) []SourceShard {
	out := make([]SourceShard, s.ShardCount())
	for i := range out {
		ds := s.DurableShard(i)
		out[i] = SourceShard{Dir: ds.Dir(), Head: ds.AppliedLSN, LastCommit: ds.LastCommit}
	}
	return out
}

// Bootstrap prepares dir as a follower of the primary behind tr and
// opens it. See the file comment for the resume/seed/wipe decision.
func Bootstrap(ctx context.Context, tr Transport, dir string, opts durable.Options) (*Node, error) {
	st, err := tr.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("repl: reading primary status: %w", err)
	}
	if st.Shards < 1 {
		return nil, fmt.Errorf("repl: primary reports %d shards", st.Shards)
	}
	n, err := openOrSeed(ctx, tr, dir, st, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n.Shards && i < len(st.Applied); i++ {
		applied := n.Target.AppliedLSN(i)
		diverged := applied > st.Applied[i] // records the primary never had
		if !diverged {
			// An LSN comparison cannot see divergence once the primary
			// has written PAST our head (a new primary taking writes
			// after a failover). Log matching can: our newest applied
			// record must be byte-identical to the primary's record at
			// the same LSN.
			diverged = probeDiverged(ctx, tr, i, n.SourceShards()[i].Dir, applied)
		}
		if !diverged {
			continue
		}
		// Our log holds records the primary never had: diverged.
		// Wipe and take the primary's history.
		n.Close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("repl: wiping diverged data directory: %w", err)
		}
		return openOrSeed(ctx, tr, dir, st, opts)
	}
	return n, nil
}

// probeDiverged runs the log-matching check for one shard: fetch the
// primary's record at our newest applied LSN and compare bytes with
// our own copy. Only a definitive mismatch reports divergence —
// anything inconclusive (either side pruned the record, the stream
// died, a chaos transport mangled it) reports false and lets the
// normal tail path sort it out.
func probeDiverged(ctx context.Context, tr Transport, shard int, dir string, applied uint64) bool {
	if applied == 0 {
		return false
	}
	lsn := applied - 1
	local, ok := readLocalRecord(dir, lsn)
	if !ok {
		return false
	}
	rc, err := tr.Tail(ctx, shard, lsn)
	if errors.Is(err, ErrDiverged) {
		return true
	}
	if err != nil {
		return false
	}
	defer rc.Close()
	fr := NewFrameReader(rc)
	for {
		frame, err := fr.Next()
		if err != nil {
			return false
		}
		switch frame.Kind {
		case FrameRecord:
			if frame.LSN < lsn {
				continue
			}
			if frame.LSN > lsn {
				return false // our record skipped over: inconclusive
			}
			return frame.RecType != local.Type || !bytes.Equal(frame.Payload, local.Payload)
		case FrameError:
			return false
		}
	}
}

// readLocalRecord reads one record from a local shard directory's own
// log, reporting ok=false when it is not retained.
func readLocalRecord(dir string, lsn uint64) (wal.Entry, bool) {
	r, err := wal.OpenTailReader(dir, lsn)
	if err != nil {
		return wal.Entry{}, false
	}
	defer r.Close()
	rec, err := r.Next()
	if err != nil || rec.LSN != lsn {
		return wal.Entry{}, false
	}
	return wal.Entry{Type: rec.Type, Payload: append([]byte(nil), rec.Payload...)}, true
}

func openOrSeed(ctx context.Context, tr Transport, dir string, st Status, opts durable.Options) (*Node, error) {
	// A local store of another layout is refused before anything is
	// seeded beside it: seeding cannot turn a root store into shard
	// directories or back. A prefix of the primary's shard directories
	// (a bootstrap cut short) is completed.
	if shard.Exists(dir) {
		dirs, err := shard.ShardDirs(dir)
		if err != nil {
			return nil, fmt.Errorf("repl: %w", err)
		}
		if root := dirs[0] == dir; root != (st.Shards == 1) || len(dirs) > st.Shards {
			return nil, fmt.Errorf("repl: %s holds a %d-shard store, the primary has %d shards", dir, len(dirs), st.Shards)
		}
	}
	for i := 0; i < st.Shards; i++ {
		sd := shard.ShardDirPath(dir, i, st.Shards)
		if durable.Exists(sd) {
			continue
		}
		if err := seedShard(ctx, tr, i, sd); err != nil {
			return nil, err
		}
	}
	ss, err := shard.OpenFollower(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Node{Sharded: ss, Target: NewShardTarget(ss), Shards: ss.ShardCount()}, nil
}

// seedShard fetches one shard's graph and checkpoint blobs and seeds
// its data directory.
func seedShard(ctx context.Context, tr Transport, i int, dir string) error {
	graphData, err := tr.Graph(ctx, i)
	if err != nil {
		return fmt.Errorf("repl: fetching shard %d graph: %w", i, err)
	}
	ckptData, _, err := tr.Checkpoint(ctx, i)
	if err != nil {
		return fmt.Errorf("repl: fetching shard %d checkpoint: %w", i, err)
	}
	if err := durable.SeedReplica(dir, graphData, ckptData); err != nil {
		return fmt.Errorf("repl: seeding shard %d: %w", i, err)
	}
	return nil
}

// ElectAndPromote runs a static-peer failover election: it asks every
// peer for its status, and promotes the reachable follower with the
// highest total applied LSN (ties break toward the earlier peer). If
// some peer already reports itself primary, that peer wins without a
// promotion. Returns the winner's base URL.
func ElectAndPromote(ctx context.Context, peers []string) (string, error) {
	best := -1
	var bestApplied uint64
	for i, p := range peers {
		st, err := (&HTTPTransport{Base: p}).Status(ctx)
		if err != nil {
			continue
		}
		if st.Role == "primary" {
			return p, nil
		}
		if best < 0 || st.TotalApplied() > bestApplied {
			best, bestApplied = i, st.TotalApplied()
		}
	}
	if best < 0 {
		return "", fmt.Errorf("repl: no reachable peers among %d", len(peers))
	}
	winner := peers[best]
	if err := (&HTTPTransport{Base: winner}).Promote(ctx); err != nil {
		return "", fmt.Errorf("repl: promoting %s: %w", winner, err)
	}
	return winner, nil
}
