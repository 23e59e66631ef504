package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/live"
	"diggsim/internal/obs"
)

// Client is the typed v1 SDK for a diggd server. Every call is
// context-first, returns *apiv1.Error for non-2xx responses (inspect
// with errors.As), retries transient failures with exponential backoff
// — honoring the server's Retry-After on 429/503 — and revalidates
// cacheable GETs with If-None-Match so an unchanged page costs a 304
// instead of a re-download. List endpoints paginate with opaque
// cursors; the *Pages methods return iterators usable as
//
//	for page, err := range client.Stories(ctx, 200) { ... }
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 10-second timeout.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts per request (default 3).
	MaxRetries int
	// Backoff is the initial retry delay, doubled per attempt with
	// full jitter (default 100ms).
	Backoff time.Duration
	// MaxBackoff caps the exponential delay between attempts
	// (default 2s).
	MaxBackoff time.Duration
	// MaxRetryAfter caps how long the client will honor a server's
	// Retry-After before giving that attempt up (default 10s).
	MaxRetryAfter time.Duration
	// DisableTransientRetry turns off retrying idempotent GETs on
	// connection errors and 5xx responses. Rate-limit retries (429
	// with Retry-After) still happen: the server rejected the request
	// before doing any work, so repeating it is always safe.
	DisableTransientRetry bool

	// etags caches (path -> ETag, body) for revalidatable GETs.
	etagMu sync.Mutex
	etags  map[string]etagEntry
}

type etagEntry struct {
	etag string
	body []byte
}

// NewClient returns a client with production defaults.
func NewClient(baseURL string) *Client {
	return NewClientWith(baseURL, ClientOptions{})
}

// ClientOptions tunes NewClientWith. Zero values take the production
// defaults, so callers set only what they care about.
type ClientOptions struct {
	// HTTPClient overrides the default 10-second-timeout client.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts per request (default 3).
	MaxRetries int
	// Backoff is the initial retry delay (default 100ms).
	Backoff time.Duration
	// MaxBackoff caps the exponential delay (default 2s).
	MaxBackoff time.Duration
	// MaxRetryAfter caps honored Retry-After waits (default 10s).
	MaxRetryAfter time.Duration
	// DisableTransientRetry opts out of retrying idempotent GETs on
	// connection errors and 5xx responses (429s are still retried).
	DisableTransientRetry bool
}

// NewClientWith returns a client with the given options applied over
// the production defaults.
func NewClientWith(baseURL string, opts ClientOptions) *Client {
	c := &Client{
		BaseURL:               baseURL,
		HTTPClient:            opts.HTTPClient,
		MaxRetries:            opts.MaxRetries,
		Backoff:               opts.Backoff,
		MaxBackoff:            opts.MaxBackoff,
		MaxRetryAfter:         opts.MaxRetryAfter,
		DisableTransientRetry: opts.DisableTransientRetry,
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 10 * time.Second}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.Backoff == 0 {
		c.Backoff = 100 * time.Millisecond
	}
	return c
}

// do performs one request with retries, decoding a JSON response into
// out (which may be nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	retries := c.MaxRetries
	if retries < 0 {
		retries = 0
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := c.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	maxRetryAfter := c.MaxRetryAfter
	if maxRetryAfter <= 0 {
		maxRetryAfter = 10 * time.Second
	}
	// Only idempotent GETs are safe to repeat after a connection error
	// or an ambiguous 5xx: a timed-out POST may already have applied.
	retryTransient := method == http.MethodGet && !c.DisableTransientRetry
	var bodyBytes []byte
	if body != nil {
		var err error
		bodyBytes, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("httpapi: encoding request: %w", err)
		}
	}
	cacheable := method == http.MethodGet && out != nil
	// One trace ID per logical call, reused across retries, so the
	// server-side traces of every attempt join under one ID (a tracing
	// server adopts it; see Tracer.Middleware).
	traceID := obs.TraceIDString(obs.NewTraceID())
	var lastErr error
	wait := time.Duration(0)
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			if wait <= 0 {
				// Full jitter on the current step so a herd of
				// clients recovering from one outage desynchronizes.
				wait = backoff/2 + rand.N(backoff/2+1)
				if backoff < maxBackoff {
					backoff *= 2
				}
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			wait = 0
		}
		var reader io.Reader
		if bodyBytes != nil {
			reader = bytes.NewReader(bodyBytes)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, reader)
		if err != nil {
			return fmt.Errorf("httpapi: building request: %w", err)
		}
		if bodyBytes != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("X-Trace-Id", traceID)
		var cached etagEntry
		if cacheable {
			if cached = c.cachedETag(path); cached.etag != "" {
				req.Header.Set("If-None-Match", cached.etag)
			}
		}
		resp, err := httpClient.Do(req)
		if err != nil {
			if !retryTransient {
				return fmt.Errorf("httpapi: %s %s: %w", method, path, err)
			}
			lastErr = err
			continue // network error on a GET: retry
		}
		err = c.decodeResponse(path, resp, cached, out)
		if err == nil {
			return nil
		}
		var apiErr *apiv1.Error
		if errors.As(err, &apiErr) && apiErr.TraceID == "" {
			// The server's echoed header wins (errorFromBody set it when
			// present); otherwise record the ID this call sent, so even
			// a connection-level failure is joinable to server logs.
			apiErr.TraceID = traceID
		}
		if errors.As(err, &apiErr) &&
			(apiErr.StatusCode == http.StatusTooManyRequests ||
				(apiErr.StatusCode >= 500 && retryTransient)) {
			lastErr = err
			// Honor the server's Retry-After (capped) over blind
			// backoff: a GCRA 429 tells us exactly when the next
			// request will conform.
			if ra := time.Duration(apiErr.RetryAfter) * time.Second; ra > 0 {
				if ra > maxRetryAfter {
					ra = maxRetryAfter
				}
				wait = ra
			}
			continue
		}
		return err // client error or decode failure: do not retry
	}
	return fmt.Errorf("httpapi: %s %s failed after %d attempts: %w",
		method, path, retries+1, lastErr)
}

func (c *Client) cachedETag(path string) etagEntry {
	c.etagMu.Lock()
	defer c.etagMu.Unlock()
	return c.etags[path]
}

func (c *Client) storeETag(path, etag string, body []byte) {
	c.etagMu.Lock()
	if c.etags == nil {
		c.etags = make(map[string]etagEntry)
	}
	c.etags[path] = etagEntry{etag: etag, body: body}
	c.etagMu.Unlock()
}

// decodeResponse turns a response into out or a typed *apiv1.Error
// (see errorFromBody), and serves 304 revalidations from the client's
// ETag cache.
func (c *Client) decodeResponse(path string, resp *http.Response, cached etagEntry, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified && cached.etag != "" {
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(cached.body, out); err != nil {
			return fmt.Errorf("httpapi: decoding cached response: %w", err)
		}
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("httpapi: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return errorFromBody(resp, data)
	}
	if etag := resp.Header.Get("ETag"); etag != "" && out != nil {
		c.storeETag(path, etag, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("httpapi: decoding response: %w", err)
	}
	return nil
}

// errorFromBody builds the typed error from a non-2xx body: the v1
// envelope when present, the raw text otherwise (plain-text replies
// such as /readyz and the router's own 404/405).
func errorFromBody(resp *http.Response, data []byte) *apiv1.Error {
	var env apiv1.ErrorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error != nil && env.Error.Code != "" {
		e := env.Error
		e.StatusCode = resp.StatusCode
		if e.RetryAfter == 0 {
			e.RetryAfter = retryAfterHeader(resp)
		}
		e.TraceID = resp.Header.Get("X-Trace-Id")
		return e
	}
	return &apiv1.Error{
		StatusCode: resp.StatusCode,
		Code:       codeForStatus(resp.StatusCode),
		Message:    string(data),
		RetryAfter: retryAfterHeader(resp),
		TraceID:    resp.Header.Get("X-Trace-Id"),
	}
}

func retryAfterHeader(resp *http.Response) int {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// codeForStatus gives envelope-less (plain-text) errors a best-effort
// stable code so errors.As dispatch works uniformly.
func codeForStatus(status int) string {
	switch status {
	case http.StatusNotFound:
		return apiv1.CodeNotFound
	case http.StatusConflict:
		return apiv1.CodeAlreadyVoted
	case http.StatusGone:
		return apiv1.CodeStoryGone
	case http.StatusTooManyRequests:
		return apiv1.CodeRateLimited
	case http.StatusBadRequest:
		return apiv1.CodeInvalidArgument
	default:
		return apiv1.CodeInternal
	}
}

// Health checks the /healthz endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// FrontPage fetches up to limit promoted stories, newest promotion
// first (the first cursor page; use FrontPagePages to crawl deeper).
func (c *Client) FrontPage(ctx context.Context, limit int) ([]apiv1.StorySummary, error) {
	var out apiv1.StoriesPage
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/frontpage?limit=%d", limit), nil, &out)
	return out.Stories, err
}

// Upcoming fetches up to limit unpromoted stories, newest first (the
// first cursor page; use UpcomingPages to crawl deeper).
func (c *Client) Upcoming(ctx context.Context, limit int) ([]apiv1.StorySummary, error) {
	var out apiv1.StoriesPage
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/upcoming?limit=%d", limit), nil, &out)
	return out.Stories, err
}

// pageSeq builds a cursor-page iterator over any v1 listing: fetch a
// page, yield it, follow its next cursor until exhaustion. Iteration
// stops at the first error (yielded with a zero page) or when the
// server omits the next cursor.
func pageSeq[T any](c *Client, ctx context.Context, path string, pageSize int, next func(*T) apiv1.Cursor) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		cursor := apiv1.Cursor("")
		for {
			url := fmt.Sprintf("%s?limit=%d", path, pageSize)
			if cursor != "" {
				url += "&cursor=" + string(cursor)
			}
			var page T
			if err := c.do(ctx, http.MethodGet, url, nil, &page); err != nil {
				var zero T
				yield(zero, err)
				return
			}
			if !yield(page, nil) {
				return
			}
			if cursor = next(&page); cursor == "" {
				return
			}
		}
	}
}

// storiesSeq is pageSeq over a stories-shaped endpoint.
func (c *Client) storiesSeq(ctx context.Context, path string, pageSize int) iter.Seq2[apiv1.StoriesPage, error] {
	if pageSize <= 0 {
		pageSize = 200
	}
	return pageSeq(c, ctx, path, pageSize,
		func(p *apiv1.StoriesPage) apiv1.Cursor { return p.NextCursor })
}

// Stories iterates cursor pages of the full story listing in
// submission order:
//
//	for page, err := range client.Stories(ctx, 200) {
//		if err != nil { return err }
//		... page.Stories ...
//	}
func (c *Client) Stories(ctx context.Context, pageSize int) iter.Seq2[apiv1.StoriesPage, error] {
	return c.storiesSeq(ctx, "/v1/stories", pageSize)
}

// FrontPagePages iterates cursor pages of the front page, newest
// promotion first.
func (c *Client) FrontPagePages(ctx context.Context, pageSize int) iter.Seq2[apiv1.StoriesPage, error] {
	return c.storiesSeq(ctx, "/v1/frontpage", pageSize)
}

// UpcomingPages iterates cursor pages of the upcoming queue, newest
// first.
func (c *Client) UpcomingPages(ctx context.Context, pageSize int) iter.Seq2[apiv1.StoriesPage, error] {
	return c.storiesSeq(ctx, "/v1/upcoming", pageSize)
}

// StoriesAt fetches one page of the story listing at the given cursor
// ("" for the first page).
func (c *Client) StoriesAt(ctx context.Context, cursor apiv1.Cursor, limit int) (apiv1.StoriesPage, error) {
	url := fmt.Sprintf("/v1/stories?limit=%d", limit)
	if cursor != "" {
		url += "&cursor=" + string(cursor)
	}
	var out apiv1.StoriesPage
	err := c.do(ctx, http.MethodGet, url, nil, &out)
	return out, err
}

// FrontPageAt fetches one page of the front page at the given cursor
// ("" for the first page) — the single-page counterpart of
// FrontPagePages for callers that manage their own crawl state.
func (c *Client) FrontPageAt(ctx context.Context, cursor apiv1.Cursor, limit int) (apiv1.StoriesPage, error) {
	url := fmt.Sprintf("/v1/frontpage?limit=%d", limit)
	if cursor != "" {
		url += "&cursor=" + string(cursor)
	}
	var out apiv1.StoriesPage
	err := c.do(ctx, http.MethodGet, url, nil, &out)
	return out, err
}

// ObsDump fetches the server's retained slow traces (/debug/obs).
func (c *Client) ObsDump(ctx context.Context) (apiv1.ObsDump, error) {
	var out apiv1.ObsDump
	err := c.do(ctx, http.MethodGet, "/debug/obs", nil, &out)
	return out, err
}

// Timeline fetches the server's metrics timeline (/debug/timeline)
// over the trailing window in steps of step, each rounded up to whole
// seconds: every series' trend plus each SLO's burn evaluation, which
// includes the SLO measured over window. A server without a timeline
// answers 404 (apiv1.CodeNotFound).
func (c *Client) Timeline(ctx context.Context, window, step time.Duration) (apiv1.TimelineDump, error) {
	secs := func(d time.Duration) int64 { return int64((d + time.Second - 1) / time.Second) }
	var out apiv1.TimelineDump
	err := c.do(ctx, http.MethodGet,
		fmt.Sprintf("/debug/timeline?window=%d&step=%d", secs(window), secs(step)), nil, &out)
	return out, err
}

// Story fetches a story with its full chronological vote list.
func (c *Client) Story(ctx context.Context, id digg.StoryID) (apiv1.StoryDetail, error) {
	var out apiv1.StoryDetail
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/stories/%d", id), nil, &out)
	return out, err
}

// User fetches a user's profile.
func (c *Client) User(ctx context.Context, id digg.UserID) (apiv1.UserInfo, error) {
	var out apiv1.UserInfo
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/users/%d", id), nil, &out)
	return out, err
}

// linksSeq iterates cursor pages of a fans/friends listing.
func (c *Client) linksSeq(ctx context.Context, path string, pageSize int) iter.Seq2[apiv1.UserLinksPage, error] {
	if pageSize <= 0 {
		pageSize = apiv1.MaxPageSize
	}
	return pageSeq(c, ctx, path, pageSize,
		func(p *apiv1.UserLinksPage) apiv1.Cursor { return p.NextCursor })
}

// FansPages iterates cursor pages of the users watching id.
func (c *Client) FansPages(ctx context.Context, id digg.UserID, pageSize int) iter.Seq2[apiv1.UserLinksPage, error] {
	return c.linksSeq(ctx, fmt.Sprintf("/v1/users/%d/fans", id), pageSize)
}

// FriendsPages iterates cursor pages of the users watched by id.
func (c *Client) FriendsPages(ctx context.Context, id digg.UserID, pageSize int) iter.Seq2[apiv1.UserLinksPage, error] {
	return c.linksSeq(ctx, fmt.Sprintf("/v1/users/%d/friends", id), pageSize)
}

// Fans fetches every user watching id, exhausting the cursor.
func (c *Client) Fans(ctx context.Context, id digg.UserID) ([]digg.UserID, error) {
	return collectLinks(c.FansPages(ctx, id, 0))
}

// Friends fetches every user watched by id, exhausting the cursor.
func (c *Client) Friends(ctx context.Context, id digg.UserID) ([]digg.UserID, error) {
	return collectLinks(c.FriendsPages(ctx, id, 0))
}

func collectLinks(pages iter.Seq2[apiv1.UserLinksPage, error]) ([]digg.UserID, error) {
	var out []digg.UserID
	for page, err := range pages {
		if err != nil {
			return nil, err
		}
		out = append(out, page.Users...)
	}
	return out, nil
}

// TopUsers fetches up to limit entries of the reputation ranking (the
// first cursor page; use TopUsersPages to crawl deeper).
func (c *Client) TopUsers(ctx context.Context, limit int) ([]digg.UserID, error) {
	var out apiv1.TopUsersPage
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/topusers?limit=%d", limit), nil, &out)
	return out.Users, err
}

// TopUsersPages iterates cursor pages of the reputation ranking, best
// first.
func (c *Client) TopUsersPages(ctx context.Context, pageSize int) iter.Seq2[apiv1.TopUsersPage, error] {
	if pageSize <= 0 {
		pageSize = 200
	}
	return pageSeq(c, ctx, "/v1/topusers", pageSize,
		func(p *apiv1.TopUsersPage) apiv1.Cursor { return p.NextCursor })
}

// Submit creates a story.
func (c *Client) Submit(ctx context.Context, req apiv1.SubmitRequest) (apiv1.StoryDetail, error) {
	var out apiv1.StoryDetail
	err := c.do(ctx, http.MethodPost, "/v1/stories", req, &out)
	return out, err
}

// Digg casts a vote.
func (c *Client) Digg(ctx context.Context, id digg.StoryID, req apiv1.DiggRequest) (apiv1.DiggResponse, error) {
	var out apiv1.DiggResponse
	err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/stories/%d/digg", id), req, &out)
	return out, err
}

// DiggBatch casts up to apiv1.MaxBatch votes in one write transaction.
func (c *Client) DiggBatch(ctx context.Context, req apiv1.BatchDiggRequest) (apiv1.BatchDiggResponse, error) {
	var out apiv1.BatchDiggResponse
	err := c.do(ctx, http.MethodPost, "/v1/diggs:batch", req, &out)
	return out, err
}

// SubmitBatch creates up to apiv1.MaxBatch stories in one write
// transaction.
func (c *Client) SubmitBatch(ctx context.Context, req apiv1.BatchSubmitRequest) (apiv1.BatchSubmitResponse, error) {
	var out apiv1.BatchSubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/stories:batch", req, &out)
	return out, err
}

// Stats fetches the server's live/HTTP metrics.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Stream subscribes to the server's /v1/stream SSE feed and invokes
// fn for every decoded event until ctx is cancelled or fn returns an
// error (which is returned verbatim). A severed connection reconnects
// transparently with Last-Event-ID, so delivery resumes right after
// the last event fn saw; events the server's broadcast ring has since
// overwritten arrive as one synthetic "lag" event carrying the exact
// count. Up to MaxRetries consecutive failed attempts are tolerated
// (the budget resets whenever an event arrives); DisableTransientRetry
// turns reconnecting off. Stream ignores the client timeout: a live
// tail has no natural deadline, so cancellation is the caller's job
// via ctx.
func (c *Client) Stream(ctx context.Context, fn func(live.Event) error) error {
	retries := c.MaxRetries
	if retries < 0 || c.DisableTransientRetry {
		retries = 0
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := c.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	st := streamState{traceID: obs.TraceIDString(obs.NewTraceID())}
	delay := backoff
	failures := 0
	for {
		progressed, err := c.streamOnce(ctx, &st, fn)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			var terminal *terminalStreamError
			if errors.As(err, &terminal) {
				return terminal.err
			}
		}
		// Anything else — a severed connection, a clean server close —
		// is a transient failure the resume protocol exists for. Event
		// progress proves the server is alive, so it resets the budget.
		if progressed {
			failures = 0
			delay = backoff
		}
		failures++
		if failures > retries {
			if err == nil {
				err = errors.New("httpapi: stream closed by server")
			}
			return err
		}
		wait := delay/2 + rand.N(delay/2+1)
		if delay < maxBackoff {
			delay *= 2
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// streamState carries resume progress across Stream's reconnects. One
// trace ID spans every reconnect of the tail, so server-side traces of
// all attempts join.
type streamState struct {
	lastSeq  uint64
	sawEvent bool
	traceID  string
}

// terminalStreamError marks errors Stream must not retry: a callback
// rejection, a malformed event, or an API error response.
type terminalStreamError struct{ err error }

func (e *terminalStreamError) Error() string { return e.err.Error() }

// streamOnce runs one SSE connection: open, read frames, dispatch.
// It reports whether any event was delivered this attempt, and wraps
// non-retryable failures in terminalStreamError.
func (c *Client) streamOnce(ctx context.Context, st *streamState, fn func(live.Event) error) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/stream", nil)
	if err != nil {
		return false, &terminalStreamError{fmt.Errorf("httpapi: building stream request: %w", err)}
	}
	req.Header.Set("Accept", "text/event-stream")
	if st.traceID != "" {
		req.Header.Set("X-Trace-Id", st.traceID)
	}
	if st.sawEvent {
		// Resume from the last delivered event: the server replays
		// what its ring still holds and reports the rest as one
		// synthetic lag event.
		req.Header.Set("Last-Event-ID", strconv.FormatUint(st.lastSeq, 10))
	}
	// The configured client's total-request timeout would sever a
	// long-lived tail; keep its transport (TLS, proxies, test
	// round-trippers) but drop the deadline.
	streamClient := &http.Client{}
	if c.HTTPClient != nil {
		streamClient.Transport = c.HTTPClient.Transport
	}
	resp, err := streamClient.Do(req)
	if err != nil {
		return false, fmt.Errorf("httpapi: opening stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, &terminalStreamError{errorFromBody(resp, data)}
	}
	progressed := false
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var data []byte
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && len(data) > 0:
			var ev live.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return progressed, &terminalStreamError{fmt.Errorf("httpapi: decoding stream event: %w", err)}
			}
			data = data[:0]
			if ev.Seq > 0 {
				st.lastSeq = ev.Seq
				st.sawEvent = true
			}
			progressed = true
			if err := fn(ev); err != nil {
				return progressed, &terminalStreamError{err}
			}
		}
	}
	if err := scanner.Err(); err != nil && ctx.Err() == nil {
		return progressed, fmt.Errorf("httpapi: reading stream: %w", err)
	}
	return progressed, nil
}
