package httpapi

// v1.go mounts the versioned /v1/* API surface: the apiv1 contract
// types, the machine-readable error envelope, cursor pagination on
// every list endpoint, and the batch write endpoints.
//
// Cursor serving strategy: every list cursor carries the platform
// generation it was minted at plus an endpoint-specific boundary key
// chosen to be stable under the live writer — the next story index for
// /v1/stories (submission order is append-only), the promotion-order
// index for /v1/frontpage (the promotion list is append-only), the
// last story id for /v1/upcoming (only older stories can follow), the
// rank index for /v1/topusers, and the link index for fans/friends
// (the graph is immutable). Every list page, at any depth, is cut from
// the one published snapshot the request loaded, so no page ever
// mixes two generations and no list request takes the store lock.

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/obs"
)

// mountAPI registers the /v1 routes on mux, each timed under its route
// class (see obs.go).
func (s *Server) mountAPI(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/frontpage", timed("frontpage", s.handleFrontPage))
	mux.HandleFunc("GET /v1/upcoming", timed("upcoming", s.handleUpcoming))
	mux.HandleFunc("GET /v1/stories", timed("stories", s.handleStories))
	mux.HandleFunc("GET /v1/stories/{id}", timed("story", s.handleStory))
	mux.HandleFunc("POST /v1/stories", timed("submit", s.handleSubmit))
	mux.HandleFunc("POST /v1/stories/{id}/digg", timed("digg", s.handleDigg))
	mux.HandleFunc("POST /v1/diggs:batch", timed("batch_digg", s.handleBatchDigg))
	mux.HandleFunc("POST /v1/stories:batch", timed("batch_submit", s.handleBatchSubmit))
	mux.HandleFunc("GET /v1/users/{id}", timed("user", s.handleUser))
	mux.HandleFunc("GET /v1/users/{id}/fans", timed("links", s.handleFans))
	mux.HandleFunc("GET /v1/users/{id}/friends", timed("links", s.handleFriends))
	mux.HandleFunc("GET /v1/topusers", timed("topusers", s.handleTopUsers))
	mux.HandleFunc("GET /v1/stats", timed("stats", s.handleStats))
	if s.live != nil {
		// The SSE stream is long-lived; its duration is connection
		// lifetime, not serving latency, so it stays uninstrumented.
		mux.HandleFunc("GET /v1/stream", s.handleStream)
	}
}

// newAPIError builds a v1 error value.
func newAPIError(status int, code, msg string) *apiv1.Error {
	return &apiv1.Error{StatusCode: status, Code: code, Message: msg}
}

// errorFor maps a storage-layer error onto the stable v1 code set.
func errorFor(err error) *apiv1.Error {
	switch {
	case errors.Is(err, digg.ErrUnknownUser):
		return newAPIError(http.StatusBadRequest, apiv1.CodeUnknownUser, err.Error())
	case errors.Is(err, digg.ErrAlreadyVoted):
		return newAPIError(http.StatusConflict, apiv1.CodeAlreadyVoted, err.Error())
	case errors.Is(err, digg.ErrStoryCompacted):
		return newAPIError(http.StatusGone, apiv1.CodeStoryGone, err.Error())
	case errors.Is(err, digg.ErrNoStory):
		return newAPIError(http.StatusNotFound, apiv1.CodeNotFound, err.Error())
	default:
		return newAPIError(http.StatusInternalServerError, apiv1.CodeInternal, err.Error())
	}
}

// writeError sends the machine-readable error envelope, mirroring
// RetryAfter into the Retry-After header.
func writeError(w http.ResponseWriter, e *apiv1.Error) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, e.StatusCode, apiv1.ErrorEnvelope{Error: e})
}

// queryRaw extracts one query parameter from the raw query string
// without building a url.Values map.
func queryRaw(rawQuery, key string) (string, bool) {
	for len(rawQuery) > 0 {
		var seg string
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			seg, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			seg, rawQuery = rawQuery, ""
		}
		if eq := strings.IndexByte(seg, '='); eq >= 0 && seg[:eq] == key {
			return seg[eq+1:], true
		}
	}
	return "", false
}

// queryLimit parses the limit query parameter: absent or zero means def,
// negative or unparsable (including overflow) is invalid_argument, and
// anything above apiv1.MaxPageSize clamps.
func queryLimit(rawQuery string, def int) (int, *apiv1.Error) {
	limit, err := queryIntRaw(rawQuery, "limit", def)
	if err != nil || limit < 0 {
		return 0, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument,
			"limit must be a non-negative integer")
	}
	if limit == 0 {
		limit = def
	}
	if limit > apiv1.MaxPageSize {
		limit = apiv1.MaxPageSize
	}
	return limit, nil
}

// cursorPos decodes the optional cursor parameter for the given
// endpoint family, returning defPos when absent and invalid_cursor on
// any malformation or tampering. A cursor whose shard-generation
// vector disagrees in length with the serving store's shard layout is
// rejected too: list positions minted under one shard count are not
// meaningful under another. Link cursors are exempt — the social
// graph is immutable, so their positions are exact under any layout.
func (s *Server) cursorPos(rawQuery string, kind apiv1.CursorKind, defPos int64) (int64, bool, *apiv1.Error) {
	raw, ok := queryRaw(rawQuery, "cursor")
	if !ok || raw == "" {
		return defPos, false, nil
	}
	p, err := apiv1.Cursor(raw).Decode(kind)
	if err != nil {
		return 0, false, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidCursor,
			"cursor is malformed or was issued by a different endpoint")
	}
	if kind != apiv1.CursorLinks {
		if len(p.ShardGens) != s.store.ShardCount() {
			return 0, false, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidCursor,
				"cursor was issued under a different shard layout")
		}
	}
	return p.Pos, true, nil
}

// pathID parses the non-negative {id} path segment.
func pathID(r *http.Request) (int, *apiv1.Error) {
	raw := r.PathValue("id")
	id, err := strconv.Atoi(raw)
	if err != nil || id < 0 {
		return 0, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid id "+strconv.Quote(raw))
	}
	return id, nil
}

// appendPageTail closes a `{"<field>":[...` page object with its total
// and, unless next is the zero payload (the listing is exhausted), the
// cursor of the following page, encoded in place so minting it costs
// no allocation. Cursors are base64url so they never need JSON
// escaping.
func appendPageTail(b []byte, total int, next apiv1.CursorPayload) []byte {
	b = append(b, `],"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	if next.Kind != 0 {
		b = append(b, `,"next_cursor":"`...)
		b = next.AppendEncoded(b)
		b = append(b, '"')
	}
	return append(b, '}')
}

// segStart returns the byte offset where entry i starts inside the
// top-user buffer rendered as "[e0,e1,...]" with ends[i] marking the
// offset just past entry i.
func segStart(ends []int, i int) int {
	if i == 0 {
		return 1
	}
	return ends[i-1] + 1
}

// --- stories ---

// handleStories serves GET /v1/stories?cursor&limit: the full corpus
// in submission order. Submission order is append-only, so the cursor
// position (next story index) is exact across generations — a full
// crawl under the live writer sees every story that existed when it
// started, each exactly once.
func (s *Server) handleStories(w http.ResponseWriter, r *http.Request) {
	limit, e := queryLimit(r.URL.RawQuery, 50)
	if e != nil {
		writeError(w, e)
		return
	}
	pos, _, e := s.cursorPos(r.URL.RawQuery, apiv1.CursorStories, 0)
	if e != nil {
		writeError(w, e)
		return
	}
	if pos < 0 {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidCursor, "negative cursor position"))
		return
	}
	view := s.snap.view.Load()
	total := len(view.summaries)
	start := int(min(pos, int64(total)))
	end := start + limit
	if end > total {
		end = total
	}
	var next apiv1.CursorPayload
	if end < total {
		next = apiv1.CursorPayload{
			Kind: apiv1.CursorStories, Gen: view.Gen,
			Pos: int64(end), Ver: uint64(view.storyVer[end-1]),
			ShardGens: view.ShardGens,
		}
	}
	bp := encBufPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"stories":[`...)
	for i := start; i < end; i++ {
		if i > start {
			b = append(b, ',')
		}
		b = append(b, view.summaries[i]...)
	}
	b = appendPageTail(b, total, next)
	writeRaw(w, b)
	putBuf(bp, b)
}

// --- front page ---

// handleFrontPage serves GET /v1/frontpage?cursor&limit: promoted
// stories, newest promotion first. The cursor holds the promotion-
// order index of the next entry to serve; the promotion list is
// append-only, so the index names the same story forever and a crawl
// under the live writer never duplicates or skips an entry (newly
// promoted stories simply sort before the crawl's starting point).
func (s *Server) handleFrontPage(w http.ResponseWriter, r *http.Request) {
	limit, e := queryLimit(r.URL.RawQuery, 15)
	if e != nil {
		writeError(w, e)
		return
	}
	// MaxInt64 is the "newest" sentinel; it clamps to the newest
	// promotion like any position past the end.
	pos, fromCursor, e := s.cursorPos(r.URL.RawQuery, apiv1.CursorFrontPage, math.MaxInt64)
	if e != nil {
		writeError(w, e)
		return
	}
	view := s.snap.view.Load()
	total := len(view.promoted)
	pos = min(pos, int64(total)-1)
	if pos < 0 {
		s.writeEmptyStories(w, total)
		return
	}
	n := min(limit, int(pos)+1)
	h := w.Header()
	if !fromCursor {
		// First pages are revalidatable: the whole response is a pure
		// function of the published generation.
		h["Etag"] = view.etag
		h["Cache-Control"] = headerRevalidate
		if etagMatches(r.Header.Get("If-None-Match"), view.etagStr) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	var next apiv1.CursorPayload
	if nextPos := pos - int64(n); nextPos >= 0 {
		next = apiv1.CursorPayload{
			Kind: apiv1.CursorFrontPage, Gen: view.Gen, Pos: nextPos,
			ShardGens: view.ShardGens,
		}
	}
	bp := encBufPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"stories":[`...)
	for k := 0; k < n; k++ {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, view.summaries[view.promoted[int(pos)-k]]...)
	}
	b = appendPageTail(b, total, next)
	writeRaw(w, b)
	putBuf(bp, b)
}

// writeEmptyStories emits an exhausted stories page.
func (s *Server) writeEmptyStories(w http.ResponseWriter, total int) {
	bp := encBufPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"stories":[`...)
	b = appendPageTail(b, total, apiv1.CursorPayload{})
	writeRaw(w, b)
	putBuf(bp, b)
}

// --- upcoming ---

// handleUpcoming serves GET /v1/upcoming?cursor&limit: unpromoted
// stories visible at the serving clock, newest first. The cursor holds
// the story id of the last served entry; only strictly older stories
// follow, so a story promoted (removed from the queue) between pages
// shifts nothing and nothing is served twice. Total counts all
// unpromoted stories as of the serving generation, including ones not
// yet visible at the clock.
func (s *Server) handleUpcoming(w http.ResponseWriter, r *http.Request) {
	limit, e := queryLimit(r.URL.RawQuery, 15)
	if e != nil {
		writeError(w, e)
		return
	}
	pos, fromCursor, e := s.cursorPos(r.URL.RawQuery, apiv1.CursorUpcoming, math.MaxInt64)
	if e != nil {
		writeError(w, e)
		return
	}
	now := s.clock()
	view := s.snap.view.Load()
	queue := view.queue
	// The queue is newest first, so the stories strictly older than the
	// cursor form a suffix.
	i0 := sort.Search(len(queue), func(i int) bool { return int64(queue[i].id) < pos })
	// The visibility filter runs at serve time: entries submitted after
	// the current clock are skipped, so a static server's queue evolves
	// with wall time without republication. Matches go straight into
	// the response buffer; one extra probe match decides whether a next
	// cursor is due without a second scan.
	bp := encBufPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"stories":[`...)
	n, more, skipped := 0, false, false
	var lastID digg.StoryID
	for i := i0; i < len(queue); i++ {
		e := &queue[i]
		if e.submittedAt > int64(now) {
			skipped = true
			continue
		}
		if n == limit {
			more = true
			break
		}
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, view.summaries[e.id]...)
		lastID = e.id
		n++
	}
	h := w.Header()
	if !fromCursor && !skipped {
		// The queue only changes with the platform generation while no
		// future-dated entries are pending, so the snapshot ETag is a
		// valid strong validator.
		h["Etag"] = view.etag
		h["Cache-Control"] = headerRevalidate
		if etagMatches(r.Header.Get("If-None-Match"), view.etagStr) {
			putBuf(bp, b)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	var next apiv1.CursorPayload
	if more {
		next = apiv1.CursorPayload{
			Kind: apiv1.CursorUpcoming, Gen: view.Gen,
			Pos: int64(lastID), Ver: uint64(view.storyVer[lastID]),
			ShardGens: view.ShardGens,
		}
	}
	b = appendPageTail(b, len(queue), next)
	writeRaw(w, b)
	putBuf(bp, b)
}

// --- top users ---

// handleTopUsers serves GET /v1/topusers?cursor&limit: the
// reputation ranking, best first. The cursor is the next rank index —
// exact while the generation is unchanged; across promotions the
// ranking may shift, which is inherent to paginating a mutable
// leaderboard and documented in docs/api.md.
func (s *Server) handleTopUsers(w http.ResponseWriter, r *http.Request) {
	limit, e := queryLimit(r.URL.RawQuery, 100)
	if e != nil {
		writeError(w, e)
		return
	}
	pos, _, e := s.cursorPos(r.URL.RawQuery, apiv1.CursorTopUsers, 0)
	if e != nil {
		writeError(w, e)
		return
	}
	if pos < 0 {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidCursor, "negative cursor position"))
		return
	}
	view := s.snap.view.Load()
	total := len(view.topEnds)
	start := int(min(pos, int64(total)))
	end := min(start+limit, total)
	var next apiv1.CursorPayload
	if end < total {
		next = apiv1.CursorPayload{
			Kind: apiv1.CursorTopUsers, Gen: view.Gen, Pos: int64(end),
			ShardGens: view.ShardGens,
		}
	}
	bp := encBufPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"users":[`...)
	if end > start {
		b = append(b, view.topBuf[segStart(view.topEnds, start):view.topEnds[end-1]]...)
	}
	b = appendPageTail(b, total, next)
	writeRaw(w, b)
	putBuf(bp, b)
}

// --- users and links ---

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	id, e := pathID(r)
	if e != nil {
		writeError(w, e)
		return
	}
	bp, buf, ok := s.userInfoBytes(digg.UserID(id))
	if !ok {
		writeError(w, newAPIError(http.StatusNotFound, apiv1.CodeNotFound, "no such user"))
		return
	}
	writeRaw(w, buf)
	putBuf(bp, buf)
}

func (s *Server) handleFans(w http.ResponseWriter, r *http.Request) {
	s.handleLinks(w, r, true)
}

func (s *Server) handleFriends(w http.ResponseWriter, r *http.Request) {
	s.handleLinks(w, r, false)
}

// handleLinks serves GET /v1/users/{id}/fans|friends with cursor
// pagination over the immutable link list (the cursor is a plain
// index; the graph never changes, so it is exact forever).
func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request, fans bool) {
	id, e := pathID(r)
	if e != nil {
		writeError(w, e)
		return
	}
	limit, e := queryLimit(r.URL.RawQuery, apiv1.MaxPageSize)
	if e != nil {
		writeError(w, e)
		return
	}
	pos, _, e := s.cursorPos(r.URL.RawQuery, apiv1.CursorLinks, 0)
	if e != nil {
		writeError(w, e)
		return
	}
	if pos < 0 {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidCursor, "negative cursor position"))
		return
	}
	u := digg.UserID(id)
	links, ok := s.links(u, fans)
	if !ok {
		writeError(w, newAPIError(http.StatusNotFound, apiv1.CodeNotFound, "no such user"))
		return
	}
	total := len(links)
	start := int(min(pos, int64(total)))
	end := start + limit
	if end > total {
		end = total
	}
	page := apiv1.UserLinksPage{ID: u, Total: total, Users: links[start:end]}
	if end < total {
		page.NextCursor = apiv1.CursorPayload{Kind: apiv1.CursorLinks, Pos: int64(end)}.Encode()
	}
	writeJSON(w, http.StatusOK, page)
}

// --- story detail and writes ---

func (s *Server) handleStory(w http.ResponseWriter, r *http.Request) {
	id, e := pathID(r)
	if e != nil {
		writeError(w, e)
		return
	}
	buf, ok, err := s.storyDetailBytes(digg.StoryID(id))
	if err != nil {
		writeError(w, newAPIError(http.StatusNotFound, apiv1.CodeNotFound, err.Error()))
		return
	}
	if ok {
		writeRaw(w, buf)
		return
	}
	// The story is newer than the published snapshot: locked
	// point-in-time read.
	s.mu.RLock()
	st, err := s.store.Story(digg.StoryID(id))
	var out apiv1.StoryDetail
	if err == nil {
		out = detail(st)
	}
	s.mu.RUnlock()
	if err != nil {
		writeError(w, newAPIError(http.StatusNotFound, apiv1.CodeNotFound, err.Error()))
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.fence(w) {
		return
	}
	var req apiv1.SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid JSON: "+err.Error()))
		return
	}
	st, err := s.submit(req, requestTraceID(r))
	if err != nil {
		writeError(w, errorFor(err))
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleDigg(w http.ResponseWriter, r *http.Request) {
	if s.fence(w) {
		return
	}
	id, e := pathID(r)
	if e != nil {
		writeError(w, e)
		return
	}
	var req apiv1.DiggRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid JSON: "+err.Error()))
		return
	}
	res, err := s.digg(digg.StoryID(id), req, requestTraceID(r))
	if err != nil {
		writeError(w, errorFor(err))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleBatchDigg serves POST /v1/diggs:batch: up to apiv1.MaxBatch
// votes applied in one write transaction — one lock acquisition and
// one snapshot republish for the whole batch, which is what lets
// agent-driven load sustain several times the single-digg write rate.
// Item failures are reported per item and do not abort the batch.
func (s *Server) handleBatchDigg(w http.ResponseWriter, r *http.Request) {
	if s.fence(w) {
		return
	}
	start := obs.Now()
	ctx := r.Context()
	decodeSpan := obs.SpanFrom(ctx, "decode")
	var req apiv1.BatchDiggRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	decodeSpan.End()
	if err != nil {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid JSON: "+err.Error()))
		return
	}
	if len(req.Diggs) == 0 || len(req.Diggs) > apiv1.MaxBatch {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument,
			"batch must contain between 1 and "+strconv.Itoa(apiv1.MaxBatch)+" diggs"))
		return
	}
	now := s.clock()
	results := make([]apiv1.BatchDiggResult, len(req.Diggs))
	applySpan := obs.SpanFrom(ctx, "apply")
	s.mu.Lock()
	// The store owns the durability bracketing: a sharded store applies
	// per-shard sub-batches concurrently, each with one WAL append and
	// one fsync. Per-item rejections come back per item.
	ops, out := growBuf(&s.diggOps, len(req.Diggs)), growBuf(&s.diggOuts, len(req.Diggs))
	for i, d := range req.Diggs {
		at := digg.Minutes(d.At)
		if at == 0 {
			at = now
		}
		ops[i] = digg.DiggOp{Story: d.Story, User: d.Voter, At: at}
	}
	s.stampWriteTrace(requestTraceID(r))
	werr := s.store.DiggMany(ops, out)
	for i, o := range out {
		if o.Err != nil {
			results[i].Error = errorFor(o.Err)
			continue
		}
		results[i] = apiv1.BatchDiggResult{InNetwork: o.Result.InNetwork, Promoted: o.Result.Promoted, Votes: o.Result.Votes}
	}
	s.mu.Unlock()
	applySpan.End()
	republishSpan := obs.SpanFrom(ctx, "republish")
	s.republish()
	republishSpan.End()
	histFreshHTTP.Observe(time.Duration(obs.Now() - start))
	if werr != nil {
		writeError(w, errorFor(werr))
		return
	}
	writeJSON(w, http.StatusOK, apiv1.BatchDiggResponse{Results: results})
}

// handleBatchSubmit serves POST /v1/stories:batch: up to
// apiv1.MaxBatch submissions in one write transaction.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	if s.fence(w) {
		return
	}
	start := obs.Now()
	ctx := r.Context()
	decodeSpan := obs.SpanFrom(ctx, "decode")
	var req apiv1.BatchSubmitRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	decodeSpan.End()
	if err != nil {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid JSON: "+err.Error()))
		return
	}
	if len(req.Stories) == 0 || len(req.Stories) > apiv1.MaxBatch {
		writeError(w, newAPIError(http.StatusBadRequest, apiv1.CodeInvalidArgument,
			"batch must contain between 1 and "+strconv.Itoa(apiv1.MaxBatch)+" stories"))
		return
	}
	now := s.clock()
	results := make([]apiv1.BatchSubmitResult, len(req.Stories))
	applySpan := obs.SpanFrom(ctx, "apply")
	s.mu.Lock()
	ops, out := growBuf(&s.submitOps, len(req.Stories)), growBuf(&s.submitOuts, len(req.Stories))
	for i, sub := range req.Stories {
		at := digg.Minutes(sub.At)
		if at == 0 {
			at = now
		}
		ops[i] = digg.SubmitOp{User: sub.Submitter, Title: sub.Title, Interest: sub.Interest, At: at}
	}
	s.stampWriteTrace(requestTraceID(r))
	werr := s.store.SubmitMany(ops, out)
	for i, o := range out {
		if o.Err != nil {
			results[i].Error = errorFor(o.Err)
			continue
		}
		sum := summarize(o.Story)
		results[i].Story = &sum
	}
	s.mu.Unlock()
	applySpan.End()
	republishSpan := obs.SpanFrom(ctx, "republish")
	s.republish()
	republishSpan.End()
	histFreshHTTP.Observe(time.Duration(obs.Now() - start))
	if werr != nil {
		writeError(w, errorFor(werr))
		return
	}
	writeJSON(w, http.StatusOK, apiv1.BatchSubmitResponse{Results: results})
}

// growBuf returns *buf resliced to n elements, growing it first if it
// is shorter. The batch handlers keep their ops and outcomes in the
// server's buffers, used only under mu, so a batch allocates only its
// response.
func growBuf[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}
