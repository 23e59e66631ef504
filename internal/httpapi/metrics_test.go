package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/graph"
	"diggsim/internal/live"
	"diggsim/internal/obs"
	"diggsim/internal/rng"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// TestMetricsExpositionLint boots a server over a sharded durable
// store, drives every instrumented path (reads, a batch write through
// the WAL, a checkpoint, a snapshot rebuild), scrapes GET /metrics,
// and lints the whole document against the text exposition format
// 0.0.4: every sample belongs to a declared family, TYPE values are
// legal, histogram series are cumulative and monotone in le with a
// +Inf bucket equal to _count, and the generation metrics — which can
// reset when a fresh data directory replaces an old one — are typed
// gauge, not counter.
func TestMetricsExpositionLint(t *testing.T) {
	g, err := graph.FromEdgeList(10, [][2]graph.NodeID{{1, 0}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 3, Window: digg.Day})
	for i := 0; i < 4; i++ {
		if _, err := p.Submit(0, fmt.Sprintf("story-%d", i), 0.5, digg.Minutes(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	store, err := shard.Create(t.TempDir(), p, 2, []byte(`{"test":"exposition-lint"}`),
		durable.Options{Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store, 100, nil)
	srv.AttachMetrics(NewMetrics())
	h := srv.Handler()

	do := func(method, path, body string, want int) {
		t.Helper()
		var req *http.Request
		if body != "" {
			req = httptest.NewRequest(method, path, strings.NewReader(body))
		} else {
			req = httptest.NewRequest(method, path, nil)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != want {
			t.Fatalf("%s %s: status %d, want %d (%s)", method, path, w.Code, want, w.Body.String())
		}
	}
	// Reads populate the http_request_seconds route classes; the batch
	// digg drives the bulk write path (per-shard apply + WAL append +
	// fsync) and triggers a snapshot rebuild; the checkpoint drives the
	// durable build/write pair.
	do(http.MethodGet, "/v1/frontpage?limit=5", "", http.StatusOK)
	do(http.MethodGet, "/v1/stories/0", "", http.StatusOK)
	do(http.MethodPost, "/v1/diggs:batch",
		`{"diggs":[{"story":0,"voter":1,"at":20},{"story":1,"voter":2,"at":21},{"story":2,"voter":3,"at":22}]}`,
		http.StatusOK)
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want exposition format 0.0.4", ct)
	}

	types := lintExposition(t, w.Body.String())

	// Every family this configuration exports must be present with its
	// type after the traffic above. Generations reset with a fresh data
	// directory: gauges, not counters (the regression this test pins
	// down).
	for fam, want := range map[string]string{
		"diggsim_http_request_seconds":     "histogram",
		"diggsim_wal_append_seconds":       "histogram",
		"diggsim_wal_fsync_seconds":        "histogram",
		"diggsim_shard_apply_seconds":      "histogram",
		"diggsim_snapshot_rebuild_seconds": "histogram",
		"diggsim_checkpoint_build_seconds": "histogram",
		"diggsim_checkpoint_write_seconds": "histogram",
		"diggsim_http_requests_total":      "counter",
		"diggsim_http_errors_total":        "counter",
		"diggsim_http_rate_limited_total":  "counter",
		"diggsim_http_in_flight":           "gauge",
		"diggsim_store_generation":         "gauge",
		"diggsim_store_stories":            "gauge",
		"diggsim_store_promoted":           "gauge",
		"diggsim_shard_writes_total":       "counter",
		"diggsim_shard_replayed_total":     "counter",
		"diggsim_shard_generation":         "gauge",
		"diggsim_shard_stories":            "gauge",
		"diggsim_snapshot_view_generation": "gauge",
	} {
		if got := types[fam]; got != want {
			t.Errorf("family %s: type %q, want %s", fam, got, want)
		}
	}
}

// TestTimelineCapturesEveryFamily boots a live server over a sharded
// durable store with request metrics and a timeline attached, and
// checks that every family GET /metrics declares reaches the timeline
// with the same kind: the server's own families (request counters,
// store, shard and live series) are captured through its registry,
// not only the process-wide instruments.
func TestTimelineCapturesEveryFamily(t *testing.T) {
	g, err := graph.PreferentialAttachment(rng.New(11), 500, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 8, Window: digg.Day})
	store, err := shard.Create(t.TempDir(), p, 2, []byte(`{"test":"timeline-families"}`),
		durable.Options{Sync: wal.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	svc, err := live.NewService(store, live.Config{Seed: 5, SubmissionsPerHour: 300, StartAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, 100, nil)
	srv.AttachLive(svc)
	m := NewMetrics()
	srv.AttachMetrics(m)
	tl := obs.NewTimeline(obs.Default, 16, time.Second)
	srv.AttachTimeline(tl)
	h := m.Middleware(srv.Handler())

	get := func(path string) string {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d (%s)", path, w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	get("/v1/frontpage?limit=5")
	if err := svc.StepTo(160); err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	tl.Capture(base)
	// Scrape between the captures, so every family it declares was
	// registered before the second one.
	types := lintExposition(t, get("/metrics"))
	tl.Capture(base.Add(time.Second))

	kinds := make(map[string]string)
	for _, ts := range tl.Dump(time.Minute, time.Second) {
		kinds[ts.Name] = ts.Kind
	}
	var missing []string
	for fam, typ := range types {
		if kind, ok := kinds[fam]; !ok {
			missing = append(missing, fam)
		} else if kind != typ {
			t.Errorf("family %s: timeline kind %q, /metrics type %q", fam, kind, typ)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d of %d /metrics families missing from the timeline: %v", len(missing), len(types), missing)
	}
	for _, fam := range []string{"diggsim_http_requests_total", "diggsim_shard_writes_total", "diggsim_live_diggs_total"} {
		if _, ok := types[fam]; !ok {
			t.Errorf("/metrics does not declare %s", fam)
		}
	}
}

// TestMetricsReportOwnServer serves two stores from one process: each
// server's /metrics reports its own store, because a server's state
// families live in its own registry rather than the process-wide one.
func TestMetricsReportOwnServer(t *testing.T) {
	g, err := graph.FromEdgeList(4, [][2]graph.NodeID{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	var handlers []http.Handler
	for n := 1; n <= 2; n++ {
		p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 3, Window: digg.Day})
		for i := 0; i < n; i++ {
			if _, err := p.Submit(0, fmt.Sprintf("story-%d", i), 0.5, digg.Minutes(10+i)); err != nil {
				t.Fatal(err)
			}
		}
		handlers = append(handlers, NewServer(p, 100, nil).Handler())
	}
	for i, h := range handlers {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		want := fmt.Sprintf("\ndiggsim_store_stories %d\n", i+1)
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("server %d: /metrics lacks %q", i, strings.TrimSpace(want))
		}
	}
}

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// lintExposition parses an exposition document, failing the test on
// any format violation, and returns each declared family's type.
func lintExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	types := make(map[string]string)
	// histogram family -> label-set (minus le) -> le -> cumulative count
	buckets := make(map[string]map[string]map[float64]float64)
	counts := make(map[string]map[string]float64) // _count samples
	sums := make(map[string]map[string]bool)      // _sum seen

	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line in exposition", ln+1)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("line %d: malformed TYPE line %q", ln+1, line)
				continue
			}
			name, typ := fields[2], fields[3]
			if !promNameRe.MatchString(name) {
				t.Errorf("line %d: bad metric name %q", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("line %d: illegal type %q for %s", ln+1, typ, name)
			}
			if _, dup := types[name]; dup {
				t.Errorf("line %d: family %s declared twice", ln+1, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment %q", ln+1, line)
			continue
		}

		// Sample line: name[{labels}] value
		labels := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				t.Errorf("line %d: unbalanced braces in %q", ln+1, line)
				continue
			}
			labels = line[i+1 : j]
			line = line[:i] + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("line %d: sample needs one value, got %q", ln+1, line)
			continue
		}
		name := fields[0]
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Errorf("line %d: unparseable value %q: %v", ln+1, fields[1], err)
			continue
		}

		family := name
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, sfx)
			if trimmed != name && types[trimmed] == "histogram" {
				family, suffix = trimmed, sfx
				break
			}
		}
		typ, declared := types[family]
		if !declared {
			t.Errorf("line %d: sample %s before any TYPE declaration", ln+1, name)
			continue
		}
		if (typ == "histogram") != (suffix != "") {
			t.Errorf("line %d: sample %s does not match its family type %s", ln+1, name, typ)
			continue
		}

		switch suffix {
		case "_bucket":
			le := ""
			var rest []string
			for _, pair := range splitLabels(labels) {
				if v, ok := strings.CutPrefix(pair, "le="); ok {
					le = strings.Trim(v, `"`)
				} else {
					rest = append(rest, pair)
				}
			}
			if le == "" {
				t.Errorf("line %d: bucket without le label: %q", ln+1, labels)
				continue
			}
			bound := inf
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					t.Errorf("line %d: unparseable le %q", ln+1, le)
					continue
				}
			}
			key := strings.Join(rest, ",")
			if buckets[family] == nil {
				buckets[family] = make(map[string]map[float64]float64)
			}
			if buckets[family][key] == nil {
				buckets[family][key] = make(map[float64]float64)
			}
			buckets[family][key][bound] = val
		case "_count":
			if counts[family] == nil {
				counts[family] = make(map[string]float64)
			}
			counts[family][labels] = val
		case "_sum":
			if sums[family] == nil {
				sums[family] = make(map[string]bool)
			}
			sums[family][labels] = true
		}
	}

	// Cross-sample histogram invariants: per series, cumulative counts
	// are monotone in le, +Inf is present and equals _count, and _sum
	// exists.
	for family, series := range buckets {
		for key, byLE := range series {
			les := make([]float64, 0, len(byLE))
			for le := range byLE {
				les = append(les, le)
			}
			sort.Float64s(les)
			prev := -1.0
			for _, le := range les {
				if byLE[le] < prev {
					t.Errorf("%s{%s}: bucket counts not cumulative at le=%g", family, key, le)
				}
				prev = byLE[le]
			}
			infCount, ok := byLE[inf]
			if !ok {
				t.Errorf("%s{%s}: no le=\"+Inf\" bucket", family, key)
				continue
			}
			if got := counts[family][key]; got != infCount {
				t.Errorf("%s{%s}: _count %g != +Inf bucket %g", family, key, got, infCount)
			}
			if !sums[family][key] {
				t.Errorf("%s{%s}: missing _sum", family, key)
			}
		}
	}
	return types
}

// inf is the le bound used for +Inf buckets in the lint maps.
var inf = func() float64 {
	v, _ := strconv.ParseFloat("+Inf", 64)
	return v
}()

// splitLabels splits raw label text on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
