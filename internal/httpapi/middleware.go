package httpapi

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/apiv1"
)

// LoggingMiddleware writes one line per request (method, path, status,
// duration) to w. It is safe for concurrent requests.
func LoggingMiddleware(w io.Writer, next http.Handler) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: rw, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		mu.Lock()
		fmt.Fprintf(w, "%s %s %d %s\n", r.Method, r.URL.Path, sw.status,
			time.Since(start).Round(time.Microsecond))
		mu.Unlock()
	})
}

// statusWriter captures the response status code for logging, and
// whether the handler flushed: only streams (the SSE feed, WAL
// shipping) flush mid-response.
type statusWriter struct {
	http.ResponseWriter
	status  int
	written bool
	flushed bool
}

func (s *statusWriter) WriteHeader(code int) {
	if !s.written {
		s.status = code
		s.written = true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	s.written = true
	return s.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming responses
// (the /v1/stream SSE feed) keep working behind the logging and
// metrics middleware.
func (s *statusWriter) Flush() {
	s.flushed = true
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// RateLimiter is a token-bucket limiter shared across all requests —
// the server-side politeness budget a real site would enforce against
// scrapers. It is implemented as a lock-free GCRA ("virtual
// scheduling"): the whole bucket state is one atomic timestamp (the
// theoretical arrival time of the next conforming request), so heavy
// concurrent read traffic contends on a single CAS instead of
// serializing behind a mutex. The semantics match the classic token
// bucket exactly: burst requests immediately, then one token every
// 1/rate seconds, refills capped at the burst capacity. The zero value
// is unusable; construct with NewRateLimiter.
type RateLimiter struct {
	interval  int64            // nanoseconds per token (1/rate)
	tolerance int64            // (burst-1) * interval: allowed head start
	tat       atomic.Int64     // theoretical arrival time, UnixNano
	now       func() time.Time // injectable clock for tests

	// trustLoopback exempts requests from loopback addresses — the
	// diggd -trust-loopback switch, so a co-located load harness can
	// drive the server at full rate while remote scrapers stay
	// politeness-limited.
	trustLoopback bool
}

// TrustLoopback makes the middleware skip rate limiting for requests
// whose RemoteAddr is a loopback address. Call before serving.
func (l *RateLimiter) TrustLoopback() { l.trustLoopback = true }

// isLoopbackAddr reports whether a request RemoteAddr ("ip:port") is a
// loopback address.
func isLoopbackAddr(remoteAddr string) bool {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		host = remoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// NewRateLimiter allows rate requests per second with the given burst
// capacity.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if rate <= 0 {
		rate = 1
	}
	if burst < 1 {
		burst = 1
	}
	interval := int64(float64(time.Second) / rate)
	if interval < 1 {
		interval = 1
	}
	return &RateLimiter{
		interval:  interval,
		tolerance: int64(burst-1) * interval,
		now:       time.Now,
	}
}

// Allow consumes one token if available.
func (l *RateLimiter) Allow() bool {
	ok, _ := l.AllowOrRetry()
	return ok
}

// AllowOrRetry consumes one token if available; on denial it also
// reports how long until the next request would conform — the value
// the 429 path surfaces as Retry-After.
func (l *RateLimiter) AllowOrRetry() (bool, time.Duration) {
	now := l.now().UnixNano()
	for {
		tat := l.tat.Load()
		// A request conforms while the bucket's theoretical arrival
		// time has not run more than the burst tolerance ahead of the
		// wall clock.
		if over := tat - l.tolerance - now; over > 0 {
			return false, time.Duration(over)
		}
		next := tat
		if now > next {
			next = now // idle gap: refills cap at burst capacity
		}
		if l.tat.CompareAndSwap(tat, next+l.interval) {
			return true, 0
		}
	}
}

// Middleware rejects requests above the limit with 429, the v1
// machine-readable error envelope ({"error":{"code":"rate_limited",
// "retry_after":N}}), and a Retry-After header computed from the GCRA
// state — the actual wait until the next conforming request, not a
// fixed hint.
func (l *RateLimiter) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if l.trustLoopback && isLoopbackAddr(r.RemoteAddr) {
			next.ServeHTTP(w, r)
			return
		}
		ok, wait := l.AllowOrRetry()
		if !ok {
			secs := int((wait + time.Second - 1) / time.Second) // ceil
			if secs < 1 {
				secs = 1
			}
			writeError(w, &apiv1.Error{
				StatusCode: http.StatusTooManyRequests,
				Code:       apiv1.CodeRateLimited,
				Message:    "rate limit exceeded",
				RetryAfter: secs,
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Metrics counts served requests with plain atomics — no lock at all,
// so the read-heavy request path and /v1/stats scrapes never contend.
// Attach to a Server with AttachMetrics to surface the counters.
type Metrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64 // responses with status >= 400
	limited  atomic.Uint64 // 429s (rate-limited requests)
	inFlight atomic.Int64
}

// NewMetrics returns a zeroed metrics collector.
func NewMetrics() *Metrics { return &Metrics{} }

// MetricsSnapshot is a point-in-time copy of the counters.
type MetricsSnapshot struct {
	Requests    uint64 `json:"requests"`
	Errors      uint64 `json:"errors"`
	RateLimited uint64 `json:"rate_limited"`
	InFlight    int64  `json:"in_flight"`
}

// Snapshot reads the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Requests:    m.requests.Load(),
		Errors:      m.errors.Load(),
		RateLimited: m.limited.Load(),
		InFlight:    m.inFlight.Load(),
	}
}

// Middleware counts each request and its response class. Place it
// outermost so rate-limited rejections are counted too.
func (m *Metrics) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.requests.Add(1)
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		if sw.status >= 400 {
			m.errors.Add(1)
			if sw.status == http.StatusTooManyRequests {
				m.limited.Add(1)
			}
		}
	})
}
