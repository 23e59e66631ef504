package shard

import (
	"fmt"
	"testing"

	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/graph"
	"diggsim/internal/wal"
)

// benchVotersPerStory bounds how many benchmark votes land on one
// story (a user votes a story once).
const benchVotersPerStory = 2000

// BenchmarkShardedBatchDigg is the sharding acceptance benchmark:
// bursts of 1000 votes applied through DiggMany against durable
// sharded stores with 1 and 4 shards. Each burst spans consecutive
// story IDs, so with 4 shards it splits across all four sub-batches
// and the per-shard WAL appends, fsyncs, and vote application all
// overlap. The acceptance bar is >= 3x votes/sec at 4 shards vs 1
// shard on a >= 4-core runner (one fsync's latency instead of four,
// one core's worth of vote application instead of four); on fewer
// cores the ratio degrades toward the fsync-overlap win alone.
func BenchmarkShardedBatchDigg(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchShardedBatchDigg(b, n)
		})
	}
}

func benchShardedBatchDigg(b *testing.B, n int) {
	const batch = 1000
	store, err := Create(b.TempDir(), benchSource(b), n, nil, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	vote := benchVoter(b, store, b.N*batch)
	ops := make([]digg.DiggOp, batch)
	out := make([]digg.DiggOutcome, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		castVotes(b, store, ops, out, vote)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "votes/sec")
}

// BenchmarkShardOpen measures recovery against WAL length: shard.Open
// of a 2-shard durable store that was closed without a checkpoint
// after about 20k and 200k vote records, so Open replays every one of
// them before the writers resume. Building the store is outside the
// timer.
func BenchmarkShardOpen(b *testing.B) {
	for _, votes := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("records=%dk", votes/1000), func(b *testing.B) {
			dir := b.TempDir()
			store, err := Create(dir, benchSource(b), 2, nil, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			vote := benchVoter(b, store, votes)
			ops := make([]digg.DiggOp, 1000)
			out := make([]digg.DiggOutcome, len(ops))
			for cast := 0; cast < votes; cast += len(ops) {
				castVotes(b, store, ops, out, vote)
			}
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(dir, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := s.ShardAppliedLSN(0) + s.ShardAppliedLSN(1); got < uint64(votes) {
					b.Fatalf("reopened log holds %d records, want at least %d", got, votes)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(votes)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// benchOpts is the durable configuration of the sharded benchmarks:
// checkpoints only when asked, so the log path is what they measure.
func benchOpts() durable.Options {
	return durable.Options{
		Policy:          digg.NeverPromote{},
		Sync:            wal.SyncInterval,
		CheckpointEvery: -1,
	}
}

// benchSource is an empty platform over a graph of benchVotersPerStory
// voters.
func benchSource(b *testing.B) *digg.Platform {
	g, err := graph.FromEdgeList(benchVotersPerStory+1, [][2]graph.NodeID{{1, 0}})
	if err != nil {
		b.Fatal(err)
	}
	return digg.NewPlatform(g, digg.NeverPromote{})
}

// benchVoter submits enough stories through store for votes votes
// (post-split installs are compacted and reject votes) and returns the
// generator of the next vote: consecutive votes fill one story's voter
// budget before moving to the next story, so a burst spans
// consecutive story IDs and splits across every shard.
func benchVoter(b *testing.B, store *Store, votes int) func() digg.DiggOp {
	nStories := votes/benchVotersPerStory + store.ShardCount()
	subs := make([]digg.SubmitOp, nStories)
	for i := range subs {
		subs[i] = digg.SubmitOp{User: 0, Title: "bench", Interest: 0.5, At: digg.Minutes(i)}
	}
	if err := store.SubmitMany(subs, make([]digg.SubmitOutcome, len(subs))); err != nil {
		b.Fatal(err)
	}
	vote := 0
	return func() digg.DiggOp {
		op := digg.DiggOp{
			Story: digg.StoryID(vote / benchVotersPerStory),
			User:  digg.UserID(1 + vote%benchVotersPerStory),
			At:    digg.Minutes(1000 + vote),
		}
		vote++
		return op
	}
}

// castVotes applies one burst of len(ops) votes from next through
// DiggMany, failing the benchmark on any rejection.
func castVotes(b *testing.B, store *Store, ops []digg.DiggOp, out []digg.DiggOutcome, next func() digg.DiggOp) {
	for k := range ops {
		ops[k] = next()
	}
	if err := store.DiggMany(ops, out); err != nil {
		b.Fatal(err)
	}
	for k := range out {
		if out[k].Err != nil {
			b.Fatalf("vote %d rejected: %v", k, out[k].Err)
		}
	}
}
