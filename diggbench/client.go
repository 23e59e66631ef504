package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/digg"
	"diggsim/internal/obs"
	"diggsim/internal/rng"
)

// conn is one client connection: an HTTP client whose transport holds
// at most one TCP connection, used by one goroutine in a closed loop.
type conn struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	body bytes.Buffer
	rec  *recorder // traced runs: client spans and trace IDs
	ids  *rng.RNG
}

func newConn(b *bench, base string, stream uint64) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &conn{hc: &http.Client{Transport: tr}, tr: tr, base: base, rec: b.rec}
	if b.rec != nil {
		c.ids = rng.Substream(b.derive(streamTraceIDs), stream)
	}
	return c
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole body into c.body. The
// latency runs from the send to the last body byte. The body is not
// decoded.
func (c *conn) do(method, path string, payload []byte, class uint8) (status int, latency int64, err error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, failedLatency, err
	}
	var trace uint64
	if c.rec != nil {
		trace = c.ids.Uint64() | 1
		req.Header.Set("X-Trace-Id", obs.TraceIDString(trace))
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := obs.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, failedLatency, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	end := obs.Now()
	if err != nil {
		return resp.StatusCode, failedLatency, err
	}
	if c.rec != nil {
		c.rec.add(span{trace: trace, layer: layerClient, name: class, start: start, end: end})
	}
	return resp.StatusCode, end - start, nil
}

// stream is one measured op stream: latencies of every op, failures
// counting as failedLatency.
type stream struct {
	lat    []int64
	at     []int64 // obs.Now when each op completed
	units  []int32 // what each op counts for in the rate
	failed int64
	bytes  int64
	start  int64 // obs.Now at the first op
	end    int64 // obs.Now after the last op
}

// record adds an op that completed now.
func (s *stream) record(latency int64, ok bool, units int32) {
	if !ok {
		s.failed++
		latency = failedLatency
	}
	s.add(obs.Now(), latency, units)
}

func (s *stream) add(at, latency int64, units int32) {
	s.at = append(s.at, at)
	s.lat = append(s.lat, latency)
	s.units = append(s.units, units)
}

// maxWindows is how many equal windows a stream's measured span is cut
// into at most.
const maxWindows = 10

// summary returns the stream's rate (units/s) and its median and tailQ
// latency. Each is the median over the quieter half of equal windows of
// the measured span (see hostSteal). A quantile uses fewer, longer
// windows when needed for a hundred ops, and ten beyond the quantile,
// in each, and the whole stream when not even three such windows fit.
func (s *stream) summary(tailQ float64, host *hostSteal) (rate, p50, tail float64) {
	if s.end <= s.start || len(s.lat) == 0 {
		return 0, 0, 0
	}
	var rates []float64
	for _, w := range s.quietWindows(maxWindows, host) {
		rates = append(rates, w.units/w.seconds)
	}
	return median(rates), s.quantile(0.5, host), s.quantile(tailQ, host)
}

// quantile returns the median over the quieter windows of the q-quantile
// latency in ms.
func (s *stream) quantile(q float64, host *hostSteal) float64 {
	k := min(maxWindows, int(float64(len(s.lat))/max(100, 10/(1-q))))
	if k < 3 {
		return ms(quantile(s.lat, q))
	}
	var qs []float64
	for _, w := range s.quietWindows(k, host) {
		qs = append(qs, ms(quantile(w.lat, q)))
	}
	return median(qs)
}

type window struct {
	lat            []int64
	units, seconds float64
}

// quietWindows cuts the measured span into k equal windows by
// completion instant and returns the quieter half of them.
func (s *stream) quietWindows(k int, host *hostSteal) []window {
	span := s.end - s.start
	ws := make([]window, k)
	for i, at := range s.at {
		w := min(max(int(int64(k)*(at-s.start)/span), 0), k-1)
		ws[w].lat = append(ws[w].lat, s.lat[i])
		ws[w].units += float64(s.units[i])
	}
	spans := make([]interval, k)
	for i := range ws {
		ws[i].seconds = float64(span) / float64(k) / 1e9
		a := s.start + span*int64(i)/int64(k)
		spans[i] = interval{value: float64(i), start: a, end: a + span/int64(k)}
	}
	var quiet []window
	for _, x := range host.quieter(spans) {
		quiet = append(quiet, ws[int(x.value)])
	}
	return quiet
}

// reader is the browse reader: 75% story detail (Zipf over the
// corpus), 20% front page (limit 15), 5% cursor pages walking
// /v1/stories and /v1/frontpage (limit 100).
type reader struct {
	c    *conn
	r    *rng.RNG
	zipf *rng.Zipf
	stream
	storyReads int64
	walkFront  bool
	cursor     string
	problems   problems
}

// problems keeps the first few failure descriptions of a client.
type problems []string

func (p *problems) add(format string, args ...any) {
	if len(*p) < 10 {
		*p = append(*p, fmt.Sprintf(format, args...))
	}
}

// decodeEvery is how often a story response is decoded and its id
// checked against the request.
const decodeEvery = 1000

func newReader(b *bench, c *conn, stories int) *reader {
	r := rng.Substream(b.derive(streamReader), 0)
	return &reader{c: c, r: r, zipf: rng.NewZipf(r, stories, 0.8)}
}

// op performs one read and records it.
func (rd *reader) op() {
	u := rd.r.Float64()
	switch {
	case u < 0.75:
		id := digg.StoryID(rd.zipf.Draw() - 1)
		status, lat, err := rd.c.do("GET", "/v1/stories/"+strconv.Itoa(int(id)), nil, nameStory)
		ok := err == nil && status == http.StatusOK && rd.c.body.Len() > 0
		rd.storyReads++
		if ok && rd.storyReads%decodeEvery == 0 {
			var d apiv1.StoryDetail
			if derr := json.Unmarshal(rd.c.body.Bytes(), &d); derr != nil || d.ID != id {
				ok = false
				rd.problems.add("story %d: decoded id %d (err %v)", id, d.ID, derr)
			}
		}
		rd.finish(status, lat, ok, err)
	case u < 0.95:
		status, lat, err := rd.c.do("GET", "/v1/frontpage?limit=15", nil, nameFrontpage)
		rd.finish(status, lat, err == nil && status == http.StatusOK && rd.c.body.Len() > 0, err)
	default:
		path := "/v1/stories?limit=100"
		if rd.walkFront {
			path = "/v1/frontpage?limit=100"
		}
		if rd.cursor != "" {
			path += "&cursor=" + url.QueryEscape(rd.cursor)
		}
		status, lat, err := rd.c.do("GET", path, nil, namePage)
		ok := err == nil && status == http.StatusOK && rd.c.body.Len() > 0
		if ok {
			rd.cursor = nextCursor(rd.c.body.Bytes())
			if rd.cursor == "" {
				rd.walkFront = !rd.walkFront
			}
		}
		rd.finish(status, lat, ok, err)
	}
}

func (rd *reader) finish(status int, lat int64, ok bool, err error) {
	if !ok {
		rd.problems.add("read: status %d, err %v", status, err)
	}
	rd.bytes += int64(rd.c.body.Len())
	rd.record(lat, ok, 1)
}

// run reads in a closed loop until stop is closed.
func (rd *reader) run(stop <-chan struct{}) {
	rd.start = obs.Now()
	for {
		select {
		case <-stop:
			rd.end = obs.Now()
			return
		default:
		}
		rd.op()
	}
}

// nextCursor extracts next_cursor from a page body without decoding
// the page.
func nextCursor(body []byte) string {
	key := []byte(`"next_cursor":"`)
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// writer is the batch writer: 50-digg batches on a pool of stories it
// submitted itself (Zipf over recency, s = 0.8), with a 5-story submit
// batch every 10th write. Voters are uniform over the corpus users.
type writer struct {
	c     *conn
	r     *rng.RNG
	zipf  *rng.Zipf
	users int
	pool  []digg.StoryID
	nop   int
	stream
	items, applied, rejected int64
	problems                 problems
	// onSubmit, when set, sees each acknowledged submit batch: the
	// newest story id and the acknowledgment instant.
	onSubmit func(id digg.StoryID, ack int64)
}

const (
	diggBatch   = 50
	submitEvery = 10
	submitBatch = 5
	poolWindow  = 1000
)

func newWriter(b *bench, c *conn, users int) *writer {
	r := rng.Substream(b.derive(streamWriter), 0)
	return &writer{c: c, r: r, zipf: rng.NewZipf(r, poolWindow, 0.8), users: users}
}

var (
	keyOutcome = []byte(`"in_network"`)
	keyError   = []byte(`"error"`)
)

// op performs one write batch and records it. The first write and
// every submitEvery-th after it submit stories; the rest digg.
func (w *writer) op() {
	defer func() { w.nop++ }()
	if w.nop%submitEvery == 0 || len(w.pool) == 0 {
		req := apiv1.BatchSubmitRequest{Stories: make([]apiv1.SubmitRequest, submitBatch)}
		for i := range req.Stories {
			req.Stories[i] = apiv1.SubmitRequest{
				Submitter: digg.UserID(w.r.Intn(w.users)),
				Title:     "bench-story-" + strconv.Itoa(w.nop) + "-" + strconv.Itoa(i),
				Interest:  w.r.Float64(),
			}
		}
		payload, _ := json.Marshal(req) // plain structs: cannot fail
		status, lat, err := w.c.do("POST", "/v1/stories:batch", payload, nameWriteSubmit)
		ok := err == nil && status == http.StatusOK
		if ok {
			var resp apiv1.BatchSubmitResponse
			if derr := json.Unmarshal(w.c.body.Bytes(), &resp); derr != nil || len(resp.Results) != submitBatch {
				ok = false
				w.problems.add("submit batch: %d results (err %v)", len(resp.Results), derr)
			} else {
				var newest digg.StoryID = -1
				for _, res := range resp.Results {
					if res.Story != nil {
						w.pool = append(w.pool, res.Story.ID)
						newest = res.Story.ID
					}
				}
				if newest >= 0 && w.onSubmit != nil {
					w.onSubmit(newest, obs.Now())
				}
			}
		} else {
			w.problems.add("submit batch: status %d, err %v", status, err)
		}
		w.record(lat, ok, 0)
		return
	}
	req := apiv1.BatchDiggRequest{Diggs: make([]apiv1.BatchDiggItem, diggBatch)}
	for i := range req.Diggs {
		rank := (w.zipf.Draw()-1)%len(w.pool) + 1 // 1 = newest story
		req.Diggs[i] = apiv1.BatchDiggItem{
			Story: w.pool[len(w.pool)-rank],
			Voter: digg.UserID(w.r.Intn(w.users)),
		}
	}
	payload, _ := json.Marshal(req)
	status, lat, err := w.c.do("POST", "/v1/diggs:batch", payload, nameWriteDigg)
	ok := err == nil && status == http.StatusOK
	if ok {
		body := w.c.body.Bytes()
		outcomes := int64(bytes.Count(body, keyOutcome))
		rejected := int64(bytes.Count(body, keyError))
		if outcomes != diggBatch || rejected > outcomes {
			ok = false
			w.problems.add("digg batch: %d outcomes, %d rejected for %d items", outcomes, rejected, diggBatch)
		} else {
			w.items += diggBatch
			w.rejected += rejected
			w.applied += outcomes - rejected
		}
	} else {
		w.problems.add("digg batch: status %d, err %v", status, err)
	}
	var items int32
	if ok {
		items = diggBatch
	}
	w.record(lat, ok, items)
}

// runFixed performs n writes back to back (closed loop).
func (w *writer) runFixed(n int) {
	w.start = obs.Now()
	for i := 0; i < n; i++ {
		w.op()
	}
	w.end = obs.Now()
}

// runPaced performs n writes, the i-th due at start + i/rate, and
// returns how late each write was sent.
func (w *writer) runPaced(n int, rate float64) []int64 {
	late := make([]int64, 0, n)
	w.start = obs.Now()
	for i := 0; i < n; i++ {
		due := w.start + int64(float64(i)*1e9/rate)
		if d := due - obs.Now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		late = append(late, obs.Now()-due)
		w.op()
	}
	w.end = obs.Now()
	return late
}

// sseClient is the /v1/stream subscriber: it records the receive
// instant of every event and checks sequence numbers.
type sseClient struct {
	c        *conn
	resp     *http.Response
	recv     []sseEvent
	lags     int
	problems problems
	received atomic.Uint64
	done     chan struct{}
}

type sseEvent struct {
	seq uint64
	at  int64
}

// subscribe opens the stream and starts reading it.
func subscribe(c *conn) (*sseClient, error) {
	resp, err := c.hc.Get(c.base + "/v1/stream")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	s := &sseClient{c: c, resp: resp, done: make(chan struct{})}
	go s.read()
	return s, nil
}

func (s *sseClient) read() {
	defer close(s.done)
	br := bufio.NewReaderSize(s.resp.Body, 64<<10)
	var seq, last uint64
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return // closed at the end of the run
		}
		switch {
		case bytes.HasPrefix(line, []byte("id: ")):
			seq, _ = strconv.ParseUint(string(bytes.TrimSpace(line[4:])), 10, 64)
		case bytes.HasPrefix(line, []byte("event: lag")):
			s.lags++
		case len(line) == 1: // blank line ends a frame
			if seq == 0 {
				continue
			}
			if seq <= last {
				s.problems.add("stream: seq %d after %d", seq, last)
			}
			last = seq
			s.recv = append(s.recv, sseEvent{seq: seq, at: obs.Now()})
			s.received.Store(seq)
			seq = 0
		}
	}
}

// close ends the stream and waits for the reader goroutine.
func (s *sseClient) close() {
	s.resp.Body.Close()
	<-s.done
	s.c.close()
}
