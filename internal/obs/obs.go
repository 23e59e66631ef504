// Package obs is the zero-dependency observability core: lock-free,
// allocation-free latency histograms, a named-instrument registry with
// Prometheus text exposition, a lightweight span/trace facility with a
// ring buffer of recent slow traces, and a continuous pprof capture
// loop.
//
// The design splits hot from cold. The hot side — Histogram.Observe,
// Counter.Add, Span.End — is atomics only: no locks, no maps, no
// allocations, so it can sit inside the serving layer's 0-alloc read
// path and the write pipeline's per-record loop. The cold side —
// registration, snapshots, quantile interpolation, exposition — takes
// a mutex and allocates freely; it runs on /metrics scrapes and
// timeline captures, never per request.
//
// Two kinds of registry share one exposition and one timeline path.
// Process-wide instruments — latency histograms and counters the
// serve/write/durability layers record into — live in Default and are
// obtained with get-or-create semantics (the same (family, labels)
// pair always returns the same instrument), so they accumulate across
// every server in the process like Prometheus client libraries do.
// State a single server owns — its request counters, store, shard,
// replication and live-simulation gauges — lives in that server's own
// Registry as collectors: functions read at scrape and capture time.
// Both render through WritePrometheus and feed a Timeline, so every
// exported family is on /metrics, on the timeline and in burn
// evaluation, and a scrape never reports another server's store.
//
// See docs/observability.md for the metric catalog, trace semantics
// and the operator runbook.
package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
)

// Registry holds named metric families and renders them for export.
// The zero value is ready to use.
type Registry struct {
	mu sync.Mutex
	// families is the family table in registration order, which is
	// also exposition order.
	families []family
}

// family is one exported metric family: a histogram family holds its
// labeled series, a counter or gauge family a collector that emits its
// samples when the registry is read.
type family struct {
	name, help string
	kind       string // "counter", "gauge" or "histogram"
	hists      []*Histogram
	collect    func(emit func(labels string, v uint64))
	counter    *Counter // the instrument behind a Counter family
}

// Default is the process-wide registry every package-level instrument
// registers with. cmd binaries export it on /metrics and capture it
// into their timeline.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// lookup returns family name, appending it with help and kind on first
// use. The pointer is valid until the next append. Caller holds mu.
func (r *Registry) lookup(name, kind, help string) *family {
	for i := range r.families {
		if r.families[i].name == name {
			return &r.families[i]
		}
	}
	r.families = append(r.families, family{name: name, help: help, kind: kind})
	return &r.families[len(r.families)-1]
}

// table copies the family table, so readers run collectors and load
// histograms without holding mu: a collector may take its owner's
// locks or call back into this registry.
func (r *Registry) table() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]family(nil), r.families...)
}

// Histogram returns the histogram series (family, labels), creating it
// on first use. family is the Prometheus metric name (by convention a
// *_seconds name; Observe records time.Durations); labels is the raw
// label-pair text spliced into the series, e.g. `route="frontpage"`,
// or "" for an unlabeled series. help is recorded on first
// registration of the family and ignored afterwards.
func (r *Registry) Histogram(family, labels, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(family, "histogram", help)
	for _, h := range f.hists {
		if h.labels == labels {
			return h
		}
	}
	h := &Histogram{labels: labels}
	f.hists = append(f.hists, h)
	return h
}

// Counter returns the monotonic counter named family (by convention a
// *_total name), creating it on first use.
func (r *Registry) Counter(family, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(family, "counter", help)
	if f.counter == nil {
		c := &Counter{}
		f.counter = c
		f.collect = func(emit func(string, uint64)) { emit("", c.Value()) }
	}
	return f.counter
}

// Collect makes fn the source of family's samples: every exposition
// and timeline capture calls fn, which emits one sample per label set
// ("" for an unlabeled family). kind is "counter" or "gauge"; gauges
// pass through the timeline raw (no delta), because their value may
// legitimately move in either direction or reset. A later call for
// the same family replaces fn. fn runs without the registry lock held
// and may block on its owner's locks; it must not retain emit.
func (r *Registry) Collect(family, kind, help string, fn func(emit func(labels string, v uint64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(family, kind, help).collect = fn
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): histograms as cumulative _bucket/_sum/_count series
// with `le` bounds in seconds, counters and gauges as one sample per
// label set their collector emits. Only non-empty buckets are emitted
// (plus +Inf), which keeps the exposition proportional to the latency
// range actually observed while remaining a valid cumulative
// histogram.
func (r *Registry) WritePrometheus(b *bytes.Buffer) {
	var snap HistSnapshot
	for _, f := range r.table() {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, h := range f.hists {
			h.Load(&snap)
			writePromHistogram(b, f.name, h.labels, &snap)
		}
		if f.collect != nil {
			f.collect(func(labels string, v uint64) {
				writeSeries(b, f.name, "", labels)
				b.WriteString(strconv.FormatUint(v, 10))
				b.WriteByte('\n')
			})
		}
	}
}

// writePromHistogram emits one labeled histogram series from a
// snapshot.
func writePromHistogram(b *bytes.Buffer, family, labels string, s *HistSnapshot) {
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		_, upper := BucketBounds(i)
		b.WriteString(family)
		b.WriteString("_bucket{")
		if labels != "" {
			b.WriteString(labels)
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(strconv.FormatFloat(float64(upper)/1e9, 'g', -1, 64))
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(family)
	b.WriteString(`_bucket{`)
	if labels != "" {
		b.WriteString(labels)
		b.WriteByte(',')
	}
	b.WriteString(`le="+Inf"} `)
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
	writeSeries(b, family, "_sum", labels)
	b.WriteString(strconv.FormatFloat(float64(s.Sum)/1e9, 'g', -1, 64))
	b.WriteByte('\n')
	writeSeries(b, family, "_count", labels)
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
}

// writeSeries writes a sample's series name and the space before its
// value: `family+sfx{labels} `, without braces when unlabeled.
func writeSeries(b *bytes.Buffer, family, sfx, labels string) {
	b.WriteString(family)
	b.WriteString(sfx)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
}

// Counter is a monotonically increasing counter. Add is one atomic
// add; the zero value is unusable — obtain from a Registry so the
// series is exported.
type Counter struct {
	v paddedUint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }
