package repl

// transport.go is how a follower reaches its primary: a small
// interface over the five replication endpoints, its production HTTP
// implementation, and the sentinel errors that drive the follower's
// reconnect-vs-rebootstrap decisions. The interface exists so the
// chaos harness can wedge a fault injector between follower and
// primary without either side knowing.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Status is the replication source's self-description, served at
// GET /repl/v1/status.
type Status struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Shards is the store's shard count.
	Shards int `json:"shards"`
	// Applied holds each shard's applied LSN — the stream head.
	Applied []uint64 `json:"applied_lsns"`
}

// TotalApplied sums the per-shard applied LSNs — the comparison key
// failover elections rank candidates by.
func (st Status) TotalApplied() uint64 {
	var sum uint64
	for _, l := range st.Applied {
		sum += l
	}
	return sum
}

// ErrSnapshotGone reports that the LSN a tail asked for is below the
// source's oldest retained log record: the stream cannot resume and
// the follower must re-bootstrap from a fresh checkpoint.
var ErrSnapshotGone = errors.New("repl: requested lsn below the source's retained log")

// ErrDiverged reports that the local log is ahead of the source's —
// the node replicated from a primary whose history this source never
// had (typically a demoted primary with unreplicated tail records).
// The local directory must be wiped and re-bootstrapped.
var ErrDiverged = errors.New("repl: local log is ahead of the source (diverged)")

// Transport reaches a replication source.
type Transport interface {
	// Status fetches the source's role, shard count and head LSNs.
	Status(ctx context.Context) (Status, error)
	// Graph fetches shard i's raw social-graph blob.
	Graph(ctx context.Context, shard int) ([]byte, error)
	// Checkpoint fetches shard i's newest checkpoint blob and its LSN.
	Checkpoint(ctx context.Context, shard int) ([]byte, uint64, error)
	// Tail opens shard i's frame stream from LSN from. The stream ends
	// when the source closes it or ctx is canceled. Returns
	// ErrSnapshotGone if from is below the retained log and
	// ErrDiverged if from is past the source's head.
	Tail(ctx context.Context, shard int, from uint64) (io.ReadCloser, error)
	// Promote asks the source's node to promote itself to primary.
	Promote(ctx context.Context) error
}

// HTTPTransport is the production Transport: plain HTTP against a
// node's replication endpoints.
type HTTPTransport struct {
	// Base is the node's base URL, e.g. "http://10.0.0.2:8080".
	Base string
	// Client serves the short control calls (status, graph,
	// checkpoint, promote). Defaults to http.DefaultClient.
	Client *http.Client
	// StreamClient serves Tail. It must not carry an overall timeout —
	// a healthy stream is open forever. Defaults to a timeout-free
	// client.
	StreamClient *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

var streamClient = &http.Client{}

func (t *HTTPTransport) streamer() *http.Client {
	if t.StreamClient != nil {
		return t.StreamClient
	}
	return streamClient
}

func (t *HTTPTransport) url(path string) string {
	return strings.TrimSuffix(t.Base, "/") + path
}

// get issues a GET and returns the response body on 200, translating
// everything else into an error.
func (t *HTTPTransport) get(ctx context.Context, path string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url(path), nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, httpStatusErr(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return data, resp.Header, nil
}

func httpStatusErr(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	switch resp.StatusCode {
	case http.StatusGone:
		return fmt.Errorf("%w: %s", ErrSnapshotGone, strings.TrimSpace(string(msg)))
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", ErrDiverged, strings.TrimSpace(string(msg)))
	}
	return fmt.Errorf("repl: source returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
}

// Status implements Transport.
func (t *HTTPTransport) Status(ctx context.Context) (Status, error) {
	data, _, err := t.get(ctx, "/repl/v1/status")
	if err != nil {
		return Status{}, err
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		return Status{}, fmt.Errorf("repl: decoding status: %w", err)
	}
	return st, nil
}

// Graph implements Transport.
func (t *HTTPTransport) Graph(ctx context.Context, shard int) ([]byte, error) {
	data, _, err := t.get(ctx, "/repl/v1/graph/"+strconv.Itoa(shard))
	return data, err
}

// Checkpoint implements Transport.
func (t *HTTPTransport) Checkpoint(ctx context.Context, shard int) ([]byte, uint64, error) {
	data, hdr, err := t.get(ctx, "/repl/v1/checkpoint/"+strconv.Itoa(shard))
	if err != nil {
		return nil, 0, err
	}
	lsn, err := strconv.ParseUint(hdr.Get("X-Checkpoint-Lsn"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("repl: checkpoint response missing X-Checkpoint-Lsn: %w", err)
	}
	return data, lsn, nil
}

// Tail implements Transport.
func (t *HTTPTransport) Tail(ctx context.Context, shard int, from uint64) (io.ReadCloser, error) {
	q := url.Values{"from": {strconv.FormatUint(from, 10)}}
	path := "/repl/v1/wal/" + strconv.Itoa(shard) + "?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url(path), nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.streamer().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, httpStatusErr(resp)
	}
	return resp.Body, nil
}

// Promote implements Transport.
func (t *HTTPTransport) Promote(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url("/repl/v1/promote"), nil)
	if err != nil {
		return err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpStatusErr(resp)
	}
	return nil
}
