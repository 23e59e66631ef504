package httpapi

// snapshot.go implements the lock-free read path. The write side
// (the /v1 write handlers, the live service's tick hook, Handler at
// startup) calls Server.republish, which rebuilds an immutable
// ReadView under the platform read lock and publishes it through an
// atomic.Pointer. Hot read handlers load the pointer and write
// pre-serialized JSON bytes straight to the response — no platform
// lock, no StorySummary allocation, no encoding/json reflection. A
// view holds enough to cut every page of every list endpoint at any
// depth: per-story summaries, the store's promotion order, the
// upcoming queue and the whole top-user ranking.
//
// Rebuilds are incremental: the store caches each story's encoded
// summary keyed by its digg.Platform version counter, so a publication
// re-encodes only stories that changed since the last one. Story
// details (vote lists) are encoded lazily on first request and cached
// per (story, version) in a slab of atomic pointers, so repeated
// scrapes of an unchanged story are served from bytes.

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/digg"
)

// queueEntry is one unpromoted story in a view's upcoming queue.
// submittedAt lets the upcoming handler apply the clock-dependent
// visibility filter at serve time, so a static server's queue stays
// correct as wall time advances without republishing; id indexes the
// view's summaries and is the boundary key v1 upcoming cursors resume
// from.
type queueEntry struct {
	id          digg.StoryID
	submittedAt int64
}

// ReadView is one immutable published snapshot of everything the hot
// read endpoints serve. It holds enough to cut any page of any list
// endpoint, so no list request needs the store lock. All byte slices
// are written once at build time and never mutated, so any number of
// handlers may serve from a view while newer views are published
// behind them.
type ReadView struct {
	// Gen is the store generation this view was built at (against a
	// sharded store, the composite generation: the shard-vector sum).
	Gen uint64
	// ShardGens is the per-shard generation vector at build time (nil
	// for an unsharded store). Cursors minted from this view embed it.
	ShardGens []uint64

	summaries [][]byte // per-story summary JSON, indexed by StoryID
	storyVer  []uint32 // per-story version at publication

	// promoted is the store's promotion order, oldest first. It shares
	// the store's append-only list (digg.Store.PromotedIDs): later
	// promotions append past its length, but the entries it covers
	// never change.
	promoted []digg.StoryID
	// queue holds every unpromoted story, newest first, including
	// future-dated submissions.
	queue []queueEntry

	topBuf  []byte // "[id,id,...]" the whole ranking, best first
	topEnds []int  // topEnds[i] = offset just past entry i (no ']')

	// ranks is the platform's promoted-submission ranking map, shared
	// immutably (digg replaces it on invalidation, never mutates it).
	ranks map[digg.UserID]int

	etagStr string   // strong ETag derived from Gen, e.g. `"g42"`
	etag    []string // ready-to-assign header value {etagStr}
}

// cachedSummary is the cross-publication summary encoding cache entry.
type cachedSummary struct {
	ver uint32
	buf []byte
}

// detailEntry is one lazily encoded story detail (summary + vote
// list) at a given story version.
type detailEntry struct {
	ver uint32
	buf []byte
}

// detailSlab is the published set of per-story detail slots. The slab
// is replaced (grown) only at publication; the slots themselves are
// filled lock-free by read handlers on cache miss.
type detailSlab struct {
	slots []*atomic.Pointer[detailEntry]
}

// snapshotStore owns the published view and the encoding caches.
type snapshotStore struct {
	mu      sync.Mutex // serializes rebuilds
	view    atomic.Pointer[ReadView]
	details atomic.Pointer[detailSlab]
	sums    []cachedSummary
	// onPublish, when non-nil (tests), observes every published view
	// while the rebuild lock is held.
	onPublish func(*ReadView)
}

func newSnapshotStore() *snapshotStore { return &snapshotStore{} }

// republish rebuilds and atomically publishes the read view if the
// platform generation moved since the last publication. It is called
// by every write path (HTTP submit/digg handlers, the live service's
// after-step hook) and by Handler before serving; readers never call
// it, so they never block behind a rebuild.
func (s *Server) republish() {
	st := s.snap
	st.mu.Lock()
	defer st.mu.Unlock()
	s.mu.RLock()
	gen := s.store.Generation()
	if cur := st.view.Load(); cur != nil && cur.Gen == gen {
		s.mu.RUnlock()
		return
	}
	buildStart := time.Now()
	view := st.build(s.store, gen)
	histSnapshotRebuild.Observe(time.Since(buildStart))
	s.mu.RUnlock()
	st.view.Store(view)
	if st.onPublish != nil {
		st.onPublish(view)
	}
}

// build assembles a view. The caller holds the store mutex (so the
// summary cache is private) and the platform read lock (so the
// platform is quiescent).
func (st *snapshotStore) build(p digg.Store, gen uint64) *ReadView {
	stories := p.Stories()
	n := len(stories)
	promoted := p.PromotedIDs()
	if cap(st.sums) < n {
		grown := make([]cachedSummary, n, n+n/2+16)
		copy(grown, st.sums)
		st.sums = grown
	}
	st.sums = st.sums[:n]

	v := &ReadView{
		Gen:       gen,
		summaries: make([][]byte, n),
		storyVer:  make([]uint32, n),
		promoted:  promoted,
		queue:     make([]queueEntry, 0, n-len(promoted)),
		ShardGens: p.ShardGenerations(nil),
	}

	// One newest-first pass refreshes the summary cache (re-encoding
	// only changed stories) and collects the upcoming queue. The queue
	// keeps future-dated submissions: the handler filters by the clock
	// at serve time.
	encoded := 0
	for i := n - 1; i >= 0; i-- {
		s := stories[i]
		ver := p.StoryVersion(s.ID)
		c := &st.sums[i]
		if c.ver != ver || c.buf == nil {
			buf := make([]byte, 0, 96+len(s.Title))
			*c = cachedSummary{ver: ver, buf: appendSummary(buf, s)}
			encoded++
		}
		v.summaries[i] = c.buf
		v.storyVer[i] = ver
		if !s.Promoted {
			v.queue = append(v.queue, queueEntry{id: s.ID, submittedAt: int64(s.SubmittedAt)})
		}
	}
	if encoded > 0 {
		ctrStoriesEncoded.Add(uint64(encoded))
	}

	// Reputation: the whole ranking pre-rendered, rank map shared for
	// lock-free /v1/users lookups.
	v.ranks = p.Ranks()
	top := p.TopUsers(len(v.ranks))
	v.topBuf = make([]byte, 0, 2+8*len(top))
	v.topBuf = append(v.topBuf, '[')
	v.topEnds = make([]int, len(top))
	for i, u := range top {
		if i > 0 {
			v.topBuf = append(v.topBuf, ',')
		}
		v.topBuf = strconv.AppendInt(v.topBuf, int64(u), 10)
		v.topEnds[i] = len(v.topBuf)
	}
	v.topBuf = append(v.topBuf, ']')

	v.etagStr = `"g` + strconv.FormatUint(gen, 10) + `"`
	v.etag = []string{v.etagStr}

	// Grow the detail slab to cover new stories. Existing slots (and
	// their cached encodings) carry over untouched.
	old := st.details.Load()
	if old == nil || len(old.slots) < n {
		slots := make([]*atomic.Pointer[detailEntry], n)
		if old != nil {
			copy(slots, old.slots)
		}
		for i := range slots {
			if slots[i] == nil {
				slots[i] = new(atomic.Pointer[detailEntry])
			}
		}
		st.details.Store(&detailSlab{slots: slots})
	}
	return v
}

// Shared header values, assigned directly into the header map so hot
// handlers allocate nothing per request.
var (
	headerJSON = []string{"application/json"}
	// headerRevalidate lets clients cache queue pages but revalidate
	// with If-None-Match on every reuse: a scraper's repeated crawls
	// of an unchanged page cost a 304, not a re-download.
	headerRevalidate = []string{"no-cache"}
)

// encBufPool recycles scratch buffers for handlers that assemble a
// response from snapshot fragments plus per-request numbers (list
// pages, user profiles). A fresh buffer holds a default-size stories
// page (50 summaries) without growing, so a pool miss (after a GC, or
// the race detector's random drops) costs only the buffer itself.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 16<<10)
		return &b
	},
}

// putBuf returns a buffer taken from encBufPool, keeping whatever
// capacity b grew to.
func putBuf(bp *[]byte, b []byte) {
	*bp = b[:0]
	encBufPool.Put(bp)
}

// queryIntRaw parses an integer query parameter straight from the raw
// query string, allocating nothing on the happy path (url.Values would
// build a map per request). Percent-encoded values take the rare slow
// path through url.QueryUnescape so legal encodings keep parsing.
func queryIntRaw(rawQuery, key string, def int) (int, error) {
	val, ok := queryRaw(rawQuery, key)
	if !ok {
		return def, nil
	}
	if strings.ContainsAny(val, "%+") {
		if dec, err := url.QueryUnescape(val); err == nil {
			val = dec
		}
	}
	v, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("invalid %s: %q", key, val)
	}
	return v, nil
}

// etagMatches reports whether the If-None-Match header value names
// etag (a quoted strong validator). It scans the comma-separated list
// without allocating; weak prefixes compare equal, matching
// conditional-GET semantics for 304 responses.
func etagMatches(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for len(header) > 0 {
		header = strings.TrimLeft(header, " \t,")
		if strings.HasPrefix(header, "W/") {
			header = header[2:]
		}
		if len(header) == 0 {
			return false
		}
		if strings.HasPrefix(header, etag) {
			rest := header[len(etag):]
			if rest == "" || rest[0] == ',' || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
		i := strings.IndexByte(header, ',')
		if i < 0 {
			return false
		}
		header = header[i+1:]
	}
	return false
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping
// quotes, backslashes and control characters.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	return append(append(b, s[start:]...), '"')
}

// appendSummary appends a story's StorySummary JSON — the manual
// counterpart of encoding/json over the types.go struct tags.
func appendSummary(b []byte, s *digg.Story) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(s.ID), 10)
	b = append(b, `,"title":`...)
	b = appendJSONString(b, s.Title)
	b = append(b, `,"submitter":`...)
	b = strconv.AppendInt(b, int64(s.Submitter), 10)
	b = append(b, `,"submitted_at":`...)
	b = strconv.AppendInt(b, int64(s.SubmittedAt), 10)
	if s.Promoted {
		b = append(b, `,"promoted":true`...)
		if s.PromotedAt != 0 { // mirrors the omitempty struct tag
			b = append(b, `,"promoted_at":`...)
			b = strconv.AppendInt(b, int64(s.PromotedAt), 10)
		}
	} else {
		b = append(b, `,"promoted":false`...)
	}
	b = append(b, `,"votes":`...)
	b = strconv.AppendInt(b, int64(len(s.Votes)), 10)
	return append(b, '}')
}

// appendDetail appends a story's StoryDetail JSON: the summary fields
// plus the chronological vote list.
func appendDetail(b []byte, s *digg.Story) []byte {
	b = appendSummary(b, s)
	b = b[:len(b)-1] // reopen the summary object
	b = append(b, `,"vote_list":[`...)
	for i, v := range s.Votes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"voter":`...)
		b = strconv.AppendInt(b, int64(v.Voter), 10)
		b = append(b, `,"at":`...)
		b = strconv.AppendInt(b, int64(v.At), 10)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// appendUserInfo appends a UserInfo JSON object.
func appendUserInfo(b []byte, id digg.UserID, fans, friends, rank int) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"fans":`...)
	b = strconv.AppendInt(b, int64(fans), 10)
	b = append(b, `,"friends":`...)
	b = strconv.AppendInt(b, int64(friends), 10)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	return append(b, '}')
}
