package shard

// bulk.go is where the multi-core write throughput lives: the batch
// bracket fans one burst's durability cost out to one WAL append +
// fsync per shard (committed concurrently), and DiggMany/SubmitMany
// additionally apply the burst's commands concurrently, one goroutine
// per shard with work.

import (
	"fmt"
	"sync"
	"time"

	"diggsim/internal/digg"
)

// BeginBatch opens a batch on every shard (a no-op on an in-memory
// one).
func (s *Store) BeginBatch() {
	for _, sh := range s.shards {
		sh.BeginBatch()
	}
}

// EndBatch commits every shard's staged batch concurrently — the
// fsyncs overlap — and returns the first error. A serial caller (the
// live service's per-tick bracket) thus pays roughly one fsync of
// latency per tick no matter how many shards its writes landed on. An
// in-memory store stages nothing, so it returns at once rather than
// start a goroutine per shard on every tick.
func (s *Store) EndBatch() error {
	if s.stores[0] == nil {
		return nil
	}
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh shardWriter) {
			defer wg.Done()
			errs[i] = sh.EndBatch()
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DiggMany applies a burst of votes, split into per-shard sub-batches
// applied concurrently: each shard's goroutine brackets its sub-batch
// in the shard's own WAL batch, so the burst costs one WAL append and
// one fsync per shard, all overlapped. Outcomes land at the index of
// their op. Promotions triggered anywhere in the burst enter the
// merged promotion order through the fold, which keeps each shard's
// apply order and merges the shards by (PromotedAt, ID): deterministic
// whatever the goroutine schedule, and the rule recovery uses.
func (s *Store) DiggMany(ops []digg.DiggOp, out []digg.DiggOutcome) error {
	if len(out) != len(ops) {
		panic(fmt.Sprintf("shard: DiggMany out len %d, ops len %d", len(out), len(ops)))
	}
	perShard := s.partitionDiggs(ops, out)
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for sh, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, idxs []int) {
			defer wg.Done()
			applyStart := time.Now()
			shard := s.shards[sh]
			shard.BeginBatch()
			applied := uint64(0)
			for _, i := range idxs {
				op := ops[i]
				res, err := shard.Digg(op.Story, op.User, op.At)
				out[i] = digg.DiggOutcome{Result: res, Err: err}
				if err != nil {
					continue
				}
				applied++
			}
			s.stats[sh].writes.Add(applied)
			errs[sh] = shard.EndBatch()
			s.applyHist[sh].Observe(time.Since(applyStart))
		}(sh, idxs)
	}
	wg.Wait()
	mergeStart := time.Now()
	s.fold()
	histMerge.Observe(time.Since(mergeStart))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// partitionDiggs groups op indices by owning shard, rejecting unknown
// story IDs up front (writing their outcomes) so goroutines only see
// routable work.
func (s *Store) partitionDiggs(ops []digg.DiggOp, out []digg.DiggOutcome) [][]int {
	perShard := make([][]int, s.n)
	for i, op := range ops {
		if op.Story < 0 || int(op.Story) >= len(s.stories) {
			out[i] = digg.DiggOutcome{Err: fmt.Errorf("%w %d", digg.ErrNoStory, op.Story)}
			continue
		}
		sh := s.shardOf(op.Story)
		perShard[sh] = append(perShard[sh], i)
	}
	return perShard
}

// SubmitMany applies a burst of submissions. Global story IDs are a
// single dense sequence, so the router pre-validates each op (the
// only per-op rejection Submit can issue is ErrUnknownUser), assigns
// the next IDs to the valid ops in order, and routes each to the
// shard owning its ID; per-shard sub-batches then apply concurrently
// and necessarily mint exactly the assigned IDs, because each shard
// receives its ops in global-sequence order.
func (s *Store) SubmitMany(ops []digg.SubmitOp, out []digg.SubmitOutcome) error {
	if len(out) != len(ops) {
		panic(fmt.Sprintf("shard: SubmitMany out len %d, ops len %d", len(out), len(ops)))
	}
	perShard := make([][]int, s.n)
	base := digg.StoryID(len(s.stories))
	assigned := 0
	for i, op := range ops {
		if op.User < 0 || int(op.User) >= s.graph.NumNodes() {
			out[i] = digg.SubmitOutcome{Err: digg.ErrUnknownUser}
			continue
		}
		sh := s.shardOf(base + digg.StoryID(assigned))
		assigned++
		perShard[sh] = append(perShard[sh], i)
	}
	if assigned == 0 {
		return nil
	}
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	for sh, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, idxs []int) {
			defer wg.Done()
			applyStart := time.Now()
			shard := s.shards[sh]
			shard.BeginBatch()
			for _, i := range idxs {
				op := ops[i]
				st, err := shard.Submit(op.User, op.Title, op.Interest, op.At)
				out[i] = digg.SubmitOutcome{Story: st, Err: err}
			}
			s.stats[sh].writes.Add(uint64(len(idxs)))
			errs[sh] = shard.EndBatch()
			s.applyHist[sh].Observe(time.Since(applyStart))
		}(sh, idxs)
	}
	wg.Wait()
	mergeStart := time.Now()
	s.fold()
	histMerge.Observe(time.Since(mergeStart))
	if want := int(base) + assigned; len(s.stories) != want {
		// Unreachable: users were pre-validated and each shard mints
		// its interleaved IDs in the routed order. Divergence here
		// means the merged sequence can no longer be trusted.
		panic(fmt.Sprintf("shard: SubmitMany minted up to story %d, expected %d", len(s.stories), want))
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
