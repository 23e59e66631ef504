package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/obs"
	"diggsim/internal/rng"
)

// TestReadLatencyJudgesReadRoutes pins the read_latency SLO to the
// read route classes: under DefaultSLOs every read route counts in its
// window, and writes, health probes and scrapes stay out of it.
func TestReadLatencyJudgesReadRoutes(t *testing.T) {
	g, err := graph.PreferentialAttachment(rng.New(11), 200, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := digg.NewPlatform(g, &digg.ClassicPromotion{VoteThreshold: 8, Window: digg.Day})
	srv := NewServer(p, 100, nil)
	tl := obs.NewTimeline(obs.Default, 16, time.Second)
	srv.AttachTimeline(tl)
	h := srv.Handler()
	do := func(method, path, body string) string {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		if w.Code/100 != 2 {
			t.Fatalf("%s %s: status %d (%s)", method, path, w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	var story struct{ ID int }
	if err := json.Unmarshal([]byte(do(http.MethodPost, "/v1/stories", `{"submitter":1,"title":"t","interest":0.5}`)), &story); err != nil {
		t.Fatal(err)
	}

	base := time.Now()
	tl.Capture(base)
	reads := []string{
		"/v1/frontpage", "/v1/upcoming", "/v1/stories", fmt.Sprintf("/v1/stories/%d", story.ID),
		"/v1/users/1", "/v1/users/1/fans", "/v1/users/1/friends", "/v1/topusers", "/v1/stats",
	}
	for _, path := range reads {
		do(http.MethodGet, path, "")
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		do(http.MethodGet, path, "")
	}
	do(http.MethodPost, "/v1/stories", `{"submitter":2,"title":"u","interest":0.5}`)
	do(http.MethodPost, fmt.Sprintf("/v1/stories/%d/digg", story.ID), `{"voter":3}`)
	do(http.MethodPost, "/v1/diggs:batch", fmt.Sprintf(`{"diggs":[{"story":%d,"voter":4}]}`, story.ID))
	do(http.MethodPost, "/v1/stories:batch", `{"stories":[{"submitter":5,"title":"v","interest":0.5}]}`)
	tl.Capture(base.Add(time.Second))

	for _, st := range tl.EvaluateBurn(DefaultSLOs(), obs.BurnConfig{}) {
		if st.SLO.Name != "read_latency" {
			continue
		}
		if st.Short.Total != uint64(len(reads)) {
			t.Fatalf("read_latency counted %d observations, want the %d reads only", st.Short.Total, len(reads))
		}
		return
	}
	t.Fatal("DefaultSLOs has no read_latency")
}
