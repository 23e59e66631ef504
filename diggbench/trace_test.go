package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/shard"
)

// capabilities are the optional digg.Store capabilities the server and
// the live stepper discover by type assertion. Losing one in the
// decorator silently changes the code path the traced run measures:
// without BulkWriter, sharded batch writes apply serially.
var capabilities = map[string]func(digg.Store) bool{
	"digg.Batcher":    func(s digg.Store) bool { _, ok := s.(digg.Batcher); return ok },
	"digg.BulkWriter": func(s digg.Store) bool { _, ok := s.(digg.BulkWriter); return ok },
	"digg.Sharded":    func(s digg.Store) bool { _, ok := s.(digg.Sharded); return ok },
	"Stats": func(s digg.Store) bool {
		_, ok := s.(interface{ Stats() []shard.Stat })
		return ok
	},
}

func TestTracedStoreKeepsCapabilities(t *testing.T) {
	inner := shard.New(graph.NewBuilder(4).Build(), nil, numShards)
	traced := newTracedStore(inner, newRecorder())
	for name, has := range capabilities {
		if has(inner) != has(traced) {
			t.Errorf("%s: shard store %v, decorator %v", name, has(inner), has(traced))
		}
	}
}

func TestTracedStoreCountsVotes(t *testing.T) {
	rec := newRecorder()
	s := newTracedStore(shard.New(graph.NewBuilder(4).Build(), nil, numShards), rec)
	st, err := s.Submit(0, "t", 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops := []digg.DiggOp{{Story: st.ID, User: 1, At: 2}, {Story: st.ID, User: 1, At: 3}}
	out := make([]digg.DiggOutcome, len(ops))
	if err := s.DiggMany(ops, out); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.votesAttempted.Load(), int64(2); got != want {
		t.Errorf("votes attempted %d, want %d", got, want)
	}
	if got, want := rec.applied.Load(), int64(1); got != want {
		t.Errorf("votes applied %d, want %d (the repeat vote is rejected)", got, want)
	}
}

// The handler decorator must hand the server the ResponseWriter it was
// given, so SSE keeps its Flusher and reads keep their 0-alloc path.
func TestTracedHandlerPassesWriterThrough(t *testing.T) {
	rw := httptest.NewRecorder()
	var got http.ResponseWriter
	h := &tracedHandler{rec: newRecorder(), next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = w
	})}
	for _, path := range []string{"/v1/stories/1", "/v1/stream"} {
		got = nil
		h.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
		if got != http.ResponseWriter(rw) {
			t.Errorf("%s: inner handler got %T, want the original writer", path, got)
		}
		if _, ok := got.(http.Flusher); !ok {
			t.Errorf("%s: inner handler lost http.Flusher", path)
		}
	}
}

func TestRouteClass(t *testing.T) {
	for _, tc := range []struct {
		method, target string
		want           uint8
	}{
		{"GET", "/v1/stories/42", nameStory},
		{"GET", "/v1/frontpage?limit=15", nameFrontpage},
		{"GET", "/v1/frontpage?limit=100&cursor=abc", namePage},
		{"GET", "/v1/stories?limit=100", namePage},
		{"POST", "/v1/diggs:batch", nameWriteDigg},
		{"POST", "/v1/stories:batch", nameWriteSubmit},
		{"GET", "/v1/stream", nameOther},
		{"GET", "/repl/v1/wal?shard=0", nameOther},
	} {
		if got := routeClass(httptest.NewRequest(tc.method, tc.target, nil)); got != tc.want {
			t.Errorf("%s %s: class %s, want %s", tc.method, tc.target, spanNames[got], spanNames[tc.want])
		}
	}
}

// BENCHMARK.json must list exactly the metrics the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []metricDef) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(listed), len(printed))
			return
		}
		for i, m := range printed {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil || roles[w.Name] == nil {
			t.Errorf("workload %q is not defined", w.Name)
		}
	}
}
