package main

import (
	"sort"
	"time"

	"diggsim/internal/digg"
	"diggsim/internal/live"
	"diggsim/internal/obs"
)

// stepper drives the live service through StepTo on a fixed wall-clock
// tick, each tick advancing stepSimMinutes, so every run simulates the
// same activity whatever the load.
type stepper struct {
	svc   *live.Service
	rec   *recorder
	base  digg.Minutes
	steps []stepRec
	err   error
	stop  chan struct{}
	done  chan struct{}
}

// stepRec is one StepTo call and the bus sequence numbers it published:
// (from, to].
type stepRec struct {
	start, end int64
	from, to   uint64
}

// startStepper steps n times (n <= 0: until halted), the k-th step due
// k ticks after the start.
func startStepper(b *bench, svc *live.Service, n int) *stepper {
	st := &stepper{svc: svc, rec: b.rec, base: svc.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go st.run(n)
	return st
}

func (st *stepper) run(n int) {
	defer close(st.done)
	t0 := time.Now()
	for k := 1; n <= 0 || k <= n; k++ {
		// The WAL flusher fsyncs every 50 ms, a divisor of the tick, so
		// steps on an exact 200 ms grid would meet it at one phase for
		// the whole run, a different one each run. Offsetting step k by
		// (k mod 10) x 5 ms visits ten phases equally in every run; the
		// mean tick stays 200 ms.
		due := t0.Add(time.Duration(k)*stepTick + time.Duration(k%10)*stepPhase)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-st.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		from := st.svc.Bus().Stats().Published
		start := obs.Now()
		err := st.svc.StepTo(st.base + digg.Minutes(k*stepSimMinutes))
		end := obs.Now()
		st.steps = append(st.steps, stepRec{start: start, end: end, from: from, to: st.svc.Bus().Stats().Published})
		if st.rec != nil {
			st.rec.add(span{layer: layerLive, name: nameStep, start: start, end: end})
		}
		if err != nil {
			st.err = err
			return
		}
	}
}

// halt stops stepping and waits for the stepper goroutine.
func (st *stepper) halt() {
	close(st.stop)
	<-st.done
}

// wait blocks until a bounded stepper has made all its steps.
func (st *stepper) wait() { <-st.done }

// setStepLayers records the live layer's step metrics.
func setStepLayers(o *outcome, st *stepper) {
	durs := make([]int64, len(st.steps))
	var sum int64
	var events uint64
	for i, s := range st.steps {
		durs[i] = s.end - s.start
		sum += durs[i]
		events += s.to - s.from
	}
	o.layers["live.step_busy_us"] = mean(sum, len(durs)) / 1e3
	o.layers["live.step_p99_us"] = float64(quantile(durs, 0.99)) / 1e3
	if len(st.steps) > 0 {
		o.layers["live.events_per_step"] = float64(events) / float64(len(st.steps))
	}
	o.layers["live.bus_dropped"] = float64(st.svc.Bus().Stats().Dropped)
}

// analyse joins the traced run's spans and records the span-derived
// per-layer metrics. Handler spans join their client span by trace ID;
// store command spans attach, by time, to the write handler or StepTo
// span that encloses them — unambiguous, because one connection writes
// and the benchmark alone steps.
func analyse(o *outcome, rec *recorder) {
	spans := rec.snapshot()
	handlerOf := map[uint64]int32{}
	var writes, steps []int32
	for i, s := range spans {
		switch {
		case s.layer == layerHTTP:
			handlerOf[s.trace] = int32(i)
			if s.name == nameWriteDigg || s.name == nameWriteSubmit {
				writes = append(writes, int32(i))
			}
		case s.layer == layerLive && s.name == nameStep:
			steps = append(steps, int32(i))
		}
	}
	byStart := func(idx []int32) {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	byStart(writes)
	byStart(steps)
	enclosing := func(idx []int32, s span) int32 {
		k := sort.Search(len(idx), func(j int) bool { return spans[idx[j]].start > s.start }) - 1
		if k >= 0 && spans[idx[k]].end >= s.end {
			return idx[k]
		}
		return -1
	}

	// Store spans to their parents; children's time and each step's
	// locked section (the step up to its EndBatch).
	childNs := map[int32]int64{}
	lockEnd := map[int32]int64{}
	var diggMany, submitMany []int64
	for i := range spans {
		s := &spans[i]
		switch s.layer {
		case layerShard:
			p := enclosing(writes, *s)
			if p < 0 {
				p = enclosing(steps, *s)
			}
			if p >= 0 {
				s.parent, s.trace = p, spans[p].trace
				childNs[p] += s.end - s.start
				if s.name == nameEndBatch && spans[p].layer == layerLive {
					lockEnd[p] = s.end
				}
			}
			switch s.name {
			case nameDiggMany:
				diggMany = append(diggMany, s.end-s.start)
			case nameSubmitMany:
				submitMany = append(submitMany, s.end-s.start)
			}
		case layerClient:
			if h, ok := handlerOf[s.trace]; ok {
				spans[h].parent = int32(i)
			}
		}
	}

	// Handler busy, self and wait time; client-minus-handler residual.
	var readDur, readResid, writeResid []int64
	var classSum [nameOther]int64
	var classN [nameOther]int
	var writeSum, selfSum, waitSum int64
	for i := range spans {
		s := spans[i]
		if s.layer != layerHTTP {
			continue
		}
		d := s.end - s.start
		classSum[s.name] += d
		classN[s.name]++
		var resid int64 = -1
		if s.parent >= 0 {
			c := spans[s.parent]
			resid = (c.end - c.start) - d
		}
		switch s.name {
		case nameWriteDigg, nameWriteSubmit:
			writeSum += d
			selfSum += d - childNs[int32(i)]
			for _, st := range steps {
				end := spans[st].end
				if le, ok := lockEnd[st]; ok {
					end = le
				}
				waitSum += overlap(s.start, s.end, spans[st].start, end)
			}
			if resid >= 0 {
				writeResid = append(writeResid, resid)
			}
		default:
			readDur = append(readDur, d)
			if resid >= 0 {
				readResid = append(readResid, resid)
			}
		}
	}
	nWrites := classN[nameWriteDigg] + classN[nameWriteSubmit]
	o.layers["httpapi.story_busy_us"] = mean(classSum[nameStory], classN[nameStory]) / 1e3
	o.layers["httpapi.frontpage_busy_us"] = mean(classSum[nameFrontpage], classN[nameFrontpage]) / 1e3
	o.layers["httpapi.page_busy_us"] = mean(classSum[namePage], classN[namePage]) / 1e3
	o.layers["httpapi.read_p99_us"] = float64(quantile(readDur, 0.99)) / 1e3
	o.layers["httpapi.write_busy_us"] = mean(writeSum, nWrites) / 1e3
	o.layers["httpapi.write_self_us"] = mean(selfSum, nWrites) / 1e3
	o.layers["httpapi.write_wait_us"] = mean(waitSum, nWrites) / 1e3
	o.layers["net.read_residual_us"] = float64(quantile(readResid, 0.5)) / 1e3
	o.layers["net.write_residual_us"] = float64(quantile(writeResid, 0.5)) / 1e3
	o.layers["shard.diggmany_busy_us"] = mean(sum(diggMany), len(diggMany)) / 1e3
	o.layers["shard.diggmany_p99_us"] = float64(quantile(diggMany, 0.99)) / 1e3
	o.layers["shard.submitmany_busy_us"] = mean(sum(submitMany), len(submitMany)) / 1e3

	attempted := rec.votesAttempted.Load()
	o.layers["digg.votes_attempted"] = float64(attempted)
	o.layers["digg.votes_applied"] = float64(rec.applied.Load())
	if attempted > 0 {
		o.layers["digg.vote_apply_ratio"] = float64(rec.applied.Load()) / float64(attempted)
	}
	o.layers["digg.promotions"] = float64(rec.promotions.Load())

	var apply []int64
	var absorbSum int64
	var absorbN int
	for _, s := range spans {
		if s.layer != layerRepl {
			continue
		}
		if s.name == nameApply {
			apply = append(apply, s.end-s.start)
		} else {
			absorbSum += s.end - s.start
			absorbN++
		}
	}
	o.layers["repl.apply_busy_us"] = mean(sum(apply), len(apply)) / 1e3
	o.layers["repl.apply_p99_us"] = float64(quantile(apply, 0.99)) / 1e3
	o.layers["repl.absorb_busy_us"] = mean(absorbSum, absorbN) / 1e3
	if n := rec.applyOps.Load(); n > 0 {
		o.layers["repl.records_per_apply"] = float64(rec.recordsApplied.Load()) / float64(n)
	}
	if n := rec.recordsApplied.Load(); n > 0 {
		o.layers["repl.ship_bytes_per_record"] = float64(rec.tailBytes.Load()) / float64(n)
	}
	o.layers["repl.tail_opens"] = float64(rec.tailOpens.Load())
}

func overlap(a0, a1, b0, b1 int64) int64 {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi > lo {
		return hi - lo
	}
	return 0
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// setObsLayers records the per-layer metrics read from the program's
// own obs instruments between two marks, for stages no public function
// bounds: snapshot rebuild, shard apply, WAL append and fsync, SSE
// flush.
func setObsLayers(o *outcome, rec *recorder, before, after obsMark) {
	rebuild := before.delta(after, famRebuild)
	o.layers["httpapi.rebuild_p50_us"] = micros(rebuild, 0.5)
	if n := rebuild.Count(); n > 0 {
		enc := after[famEncoded].Sum - before[famEncoded].Sum
		o.layers["httpapi.stories_encoded_per_rebuild"] = float64(enc) / float64(n)
		o.layers["shard.query_busy_us"] = rec.queryTime() / 1e3 / float64(n)
	}
	o.layers["shard.apply_p50_us"] = micros(before.delta(after, famShardApply), 0.5)
	o.layers["wal.append_p50_us"] = micros(before.delta(after, famWALAppend), 0.5)
	fsync := before.delta(after, famWALFsync)
	o.layers["wal.fsync_p50_us"] = micros(fsync, 0.5)
	o.layers["wal.fsyncs"] = float64(fsync.Count())
	o.layers["live.sse_flush_p50_us"] = micros(before.delta(after, obs.FreshnessSSEFamily), 0.5)
}
