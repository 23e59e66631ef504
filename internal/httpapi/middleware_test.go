package httpapi

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diggsim/internal/apiv1"
)

func TestLoggingMiddleware(t *testing.T) {
	var buf bytes.Buffer
	h := LoggingMiddleware(&buf, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/brew")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := buf.String()
	if !strings.Contains(line, "GET /brew 418") {
		t.Errorf("log line = %q", line)
	}
}

func TestLoggingMiddlewareDefaultStatus(t *testing.T) {
	var buf bytes.Buffer
	h := LoggingMiddleware(&buf, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok")) // implicit 200
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), " 200 ") {
		t.Errorf("log line = %q", buf.String())
	}
}

func TestRateLimiterBurst(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewRateLimiter(1, 3)
	l.now = func() time.Time { return now }
	for i := 0; i < 3; i++ {
		if !l.Allow() {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if l.Allow() {
		t.Fatal("4th request within burst allowed")
	}
	// One second later: one token refilled.
	now = now.Add(time.Second)
	if !l.Allow() {
		t.Fatal("refilled token denied")
	}
	if l.Allow() {
		t.Fatal("over-refill")
	}
	// Refill caps at capacity.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !l.Allow() {
			t.Fatalf("post-idle request %d denied", i)
		}
	}
	if l.Allow() {
		t.Fatal("capacity cap violated")
	}
}

func TestRateLimiterDefaults(t *testing.T) {
	l := NewRateLimiter(0, 0)
	if !l.Allow() {
		t.Fatal("defaulted limiter denied first request")
	}
}

func TestRateLimitMiddleware429(t *testing.T) {
	l := NewRateLimiter(0.001, 1) // effectively one request
	h := l.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp1, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request status %d", resp1.StatusCode)
	}
	resp2, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
}

// TestRateLimitTrustLoopback checks the -trust-loopback exemption:
// loopback clients bypass the limiter entirely while remote addresses
// stay limited.
func TestRateLimitTrustLoopback(t *testing.T) {
	l := NewRateLimiter(0.001, 1) // effectively one request
	l.TrustLoopback()
	h := l.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	// httptest connects over 127.0.0.1, so every request is exempt.
	ts := httptest.NewServer(h)
	defer ts.Close()
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("loopback request %d status %d", i, resp.StatusCode)
		}
	}
	// A non-loopback RemoteAddr still consumes tokens and gets 429'd.
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.RemoteAddr = "203.0.113.9:4242"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("remote request %d status %d, want %d", i, rec.Code, want)
		}
	}
}

func TestClientRetriesOn429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			writeError(w, newAPIError(http.StatusTooManyRequests, apiv1.CodeRateLimited, "slow down"))
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("client did not ride out 429s: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d", calls.Load())
	}
}

func TestStoryListPagination(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(ctx, apiv1.SubmitRequest{Submitter: 0, Title: "t", At: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// First cursor page.
	page, err := c.StoriesAt(ctx, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 5 || len(page.Stories) != 2 || page.NextCursor == "" {
		t.Fatalf("page = %+v", page)
	}
	if page.Stories[0].ID != 0 || page.Stories[1].ID != 1 {
		t.Errorf("page order = %+v", page.Stories)
	}
	// Follow the cursor to the middle page.
	page, err = c.StoriesAt(ctx, page.NextCursor, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Stories) != 2 || page.Stories[0].ID != 2 {
		t.Errorf("second page = %+v", page.Stories)
	}
	// Final page exhausts the cursor.
	page, err = c.StoriesAt(ctx, page.NextCursor, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Stories) != 1 || page.Stories[0].ID != 4 || page.NextCursor != "" {
		t.Errorf("final page = %+v", page)
	}
	// The iterator sees every story exactly once.
	var ids []int
	for page, err := range c.Stories(ctx, 2) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range page.Stories {
			ids = append(ids, int(s.ID))
		}
	}
	if len(ids) != 5 {
		t.Fatalf("iterator saw %d stories: %v", len(ids), ids)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("iterator order = %v", ids)
		}
	}
}

func TestServerWithMiddlewareStack(t *testing.T) {
	// The full production stack: rate limit over logging over the API.
	srv, _, _ := newTestServer(t)
	var buf bytes.Buffer
	limiter := NewRateLimiter(1000, 1000)
	stack := limiter.Middleware(LoggingMiddleware(&buf, srv.Handler()))
	ts := httptest.NewServer(stack)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Backoff = time.Millisecond
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GET /healthz 200") {
		t.Errorf("stacked log = %q", buf.String())
	}
}
