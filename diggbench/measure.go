package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"diggsim/internal/obs"
	"diggsim/internal/rng"
)

// bench is one benchmark process: its flags, work directory and, when
// traced, the span recorder the decorators write to.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	dir      string
	rec      *recorder // nil when untraced
	host     *hostSteal
}

func newBench(workload string, seed uint64, seconds int, traced bool) (*bench, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	b := &bench{workload: workload, seed: seed, seconds: seconds, traced: traced, dir: dir, host: startHostSteal()}
	if traced {
		b.rec = newRecorder()
	}
	return b, nil
}

// close stops the steal sampler, writes the spans out (traced runs)
// and removes the data directories.
func (b *bench) close() {
	b.host.halt()
	if b.rec != nil {
		path := fmt.Sprintf(".bench_build/spans-%s-%d.tsv", b.workload, b.seed)
		if err := b.rec.writeTo(path); err != nil {
			fmt.Fprintln(os.Stderr, "diggbench: writing spans:", err)
		}
	}
	os.RemoveAll(b.dir)
}

// Seed streams: every input the benchmark draws derives from the
// workload seed through one of these substream indices.
const (
	streamReader = iota + 1
	streamWriter
	streamStepper
	streamExperiments
	streamTraceIDs
)

// derive returns a seed for one input stream.
func (b *bench) derive(stream uint64) uint64 {
	return rng.Substream(b.seed, stream).Uint64()
}

// ms converts obs.Now nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// quantile returns the q-quantile of xs (nearest rank), leaving xs as
// it is. Returns 0 for no samples.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(sum int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// failedLatency is the latency recorded for a failed op, so a failure
// counts as missing every latency limit.
const failedLatency = int64(time.Hour)

// Client latency limits, the client gates of internal/load.
const (
	readLimit  = 50 * time.Millisecond
	writeLimit = 250 * time.Millisecond
)

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if len(line) > 6 && line[:6] == "VmHWM:" {
			f := bytes.Fields([]byte(line[6:]))
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// hostSteal samples the guest's CPU steal time, the "steal" column of
// /proc/stat: time the hypervisor ran other guests while this one was
// runnable. It samples every stealEvery from start until halt. On a
// shared 2-vCPU host, steal bursts of a few seconds cut closed-loop
// throughput by up to a third; since the program does not cause steal,
// the benchmark ranks repeated measurements by it and keeps the quieter
// half, without looking at the metric itself.
type hostSteal struct {
	mu      sync.Mutex
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

type stealSample struct {
	at           int64 // obs.Now
	steal, total uint64
}

const stealEvery = 50 * time.Millisecond

func startHostSteal() *hostSteal {
	h := &hostSteal{stop: make(chan struct{}), done: make(chan struct{})}
	go h.run()
	return h
}

func (h *hostSteal) run() {
	defer close(h.done)
	t := time.NewTicker(stealEvery)
	defer t.Stop()
	for {
		if s, ok := readSteal(); ok {
			h.mu.Lock()
			h.samples = append(h.samples, s)
			h.mu.Unlock()
		}
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
	}
}

// halt stops sampling and waits for the sampler.
func (h *hostSteal) halt() {
	close(h.stop)
	<-h.done
}

// share returns the steal share of all CPU time between two obs.Now
// instants, from the samples bracketing them. ok is false when no
// sample pair brackets the interval.
func (h *hostSteal) share(a, b int64) (share float64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.samples), func(i int) bool { return h.samples[i].at > a }) - 1
	j := sort.Search(len(h.samples), func(i int) bool { return h.samples[i].at >= b })
	i, j = max(i, 0), min(j, len(h.samples)-1)
	if j <= i || h.samples[j].total == h.samples[i].total {
		return 0, false
	}
	return float64(h.samples[j].steal-h.samples[i].steal) / float64(h.samples[j].total-h.samples[i].total), true
}

// interval is one repetition of a measurement and when it ran.
type interval struct {
	value      float64
	start, end int64 // obs.Now
}

// quieter returns the half of xs, at least three, that ran with the
// least host steal, plus any that tie with the noisiest of those (so a
// quiet host keeps every interval), or all of xs when steal cannot be
// read. Order is preserved.
func (h *hostSteal) quieter(xs []interval) []interval {
	if len(xs) == 0 {
		return xs
	}
	steal := make([]float64, len(xs))
	for i, x := range xs {
		s, ok := h.share(x.start, x.end)
		if !ok {
			return xs
		}
		steal[i] = s
	}
	sorted := slices.Clone(steal)
	slices.Sort(sorted)
	limit := sorted[max((len(xs)+1)/2, min(len(xs), 3))-1]
	var out []interval
	for i, x := range xs {
		if steal[i] <= limit {
			out = append(out, x)
		}
	}
	return out
}

// quietMedian is the median value of the quieter half of xs.
func (h *hostSteal) quietMedian(xs []interval) float64 {
	var vs []float64
	for _, x := range h.quieter(xs) {
		vs = append(vs, x.value)
	}
	return median(vs)
}

// readSteal reads the aggregate cpu line of /proc/stat: user nice
// system idle iowait irq softirq steal (in clock ticks).
func readSteal() (stealSample, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return stealSample{}, false
	}
	s := stealSample{at: obs.Now()}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(string(f[i]), 10, 64)
		if err != nil {
			return stealSample{}, false
		}
		s.total += v
	}
	s.steal, _ = strconv.ParseUint(string(f[8]), 10, 64)
	return s, true
}

// runtimeSample is a reading of the Go runtime's counters.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// setRuntimeLayers records the runtime layer's metrics between two
// readings, per client op.
func setRuntimeLayers(o *outcome, before, after runtimeSample, ops int64) {
	if ops > 0 {
		o.layers["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / float64(ops)
	}
	o.layers["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		o.layers["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// obsMark is a reading of the program's own obs instruments, so a run
// can report what happened between two marks.
type obsMark map[string]obs.HistSnapshot

// Instrument families the per-layer metrics read from obs.Default.
const (
	famRebuild    = "diggsim_snapshot_rebuild_seconds"
	famEncoded    = "diggsim_snapshot_stories_encoded_total"
	famShardApply = "diggsim_shard_apply_seconds"
	famWALAppend  = "diggsim_wal_append_seconds"
	famWALFsync   = "diggsim_wal_fsync_seconds"
	famCkptWrite  = "diggsim_checkpoint_write_seconds"
)

// markedHists lists each histogram family with the label sets the
// program registers for it (the shard apply family is per shard), so
// marking never registers a new series.
var markedHists = map[string][]string{
	famRebuild:             {""},
	famShardApply:          {`shard="0"`, `shard="1"`},
	famWALAppend:           {""},
	famWALFsync:            {""},
	famCkptWrite:           {""},
	obs.FreshnessSSEFamily: {""},
}

func markObs() obsMark {
	m := obsMark{}
	for fam, labels := range markedHists {
		var merged obs.HistSnapshot
		for _, label := range labels {
			s := obs.Default.Histogram(fam, label, "").Snapshot()
			merged.Merge(&s)
		}
		m[fam] = merged
	}
	m[famEncoded] = obs.HistSnapshot{Sum: obs.Default.Counter(famEncoded, "").Value()}
	return m
}

// delta returns what family recorded between two marks.
func (m obsMark) delta(later obsMark, fam string) obs.HistSnapshot {
	a, b := m[fam], later[fam]
	d := obs.HistSnapshot{Counts: make([]uint64, len(b.Counts)), Sum: b.Sum - a.Sum}
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i]
		if i < len(a.Counts) {
			d.Counts[i] -= a.Counts[i]
		}
	}
	return d
}

// micros converts a histogram quantile (ns) to microseconds.
func micros(s obs.HistSnapshot, q float64) float64 { return s.Quantile(q) / 1e3 }
