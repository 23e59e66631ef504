package repl

// fault.go is the chaos harness's seam: a Transport wrapper that
// decodes the real stream and re-emits it with injected faults — frames
// dropped, duplicated, or cut off mid-byte — plus a partition switch
// that severs every call. The follower cannot tell these from real
// network misbehavior, which is the point: the chaos tests assert that
// dedup, gap detection and reconnect-from-applied-LSN recover the exact
// primary state through all of them.

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
)

// ErrPartitioned is what a partitioned FaultTransport's calls fail
// with. It looks like any other transport error to the follower:
// retryable.
var ErrPartitioned = errors.New("repl: fault injection: partitioned")

// FaultTransport wraps a Transport with deterministic frame-level
// fault injection. Every Nth frame across the transport's lifetime is
// affected; zero disables that fault. The zero intervals make it a
// transparent pass-through.
type FaultTransport struct {
	Inner Transport

	// DropEvery drops every Nth frame from tail streams.
	DropEvery int
	// DupEvery emits every Nth frame twice.
	DupEvery int
	// TruncateEvery cuts the stream off halfway through every Nth
	// frame's bytes, then ends it — the shape of a connection dying
	// mid-send.
	TruncateEvery int

	// Partitioned, while true, fails every call (including reads on
	// already-open streams). Flip it back to heal the partition.
	Partitioned atomic.Bool

	frames atomic.Uint64
}

// Status implements Transport.
func (t *FaultTransport) Status(ctx context.Context) (Status, error) {
	if t.Partitioned.Load() {
		return Status{}, ErrPartitioned
	}
	return t.Inner.Status(ctx)
}

// Graph implements Transport.
func (t *FaultTransport) Graph(ctx context.Context, shard int) ([]byte, error) {
	if t.Partitioned.Load() {
		return nil, ErrPartitioned
	}
	return t.Inner.Graph(ctx, shard)
}

// Checkpoint implements Transport.
func (t *FaultTransport) Checkpoint(ctx context.Context, shard int) ([]byte, uint64, error) {
	if t.Partitioned.Load() {
		return nil, 0, ErrPartitioned
	}
	return t.Inner.Checkpoint(ctx, shard)
}

// Promote implements Transport.
func (t *FaultTransport) Promote(ctx context.Context) error {
	if t.Partitioned.Load() {
		return ErrPartitioned
	}
	return t.Inner.Promote(ctx)
}

// Tail implements Transport, wrapping the inner stream in the fault
// injector.
func (t *FaultTransport) Tail(ctx context.Context, shard int, from uint64) (io.ReadCloser, error) {
	if t.Partitioned.Load() {
		return nil, ErrPartitioned
	}
	rc, err := t.Inner.Tail(ctx, shard, from)
	if err != nil {
		return nil, err
	}
	return &faultStream{t: t, inner: rc, fr: NewFrameReader(rc)}, nil
}

// faultStream re-frames an inner stream with faults applied.
type faultStream struct {
	t     *FaultTransport
	inner io.ReadCloser
	fr    *FrameReader
	out   []byte
	cut   bool
}

func (f *faultStream) Read(p []byte) (int, error) {
	for len(f.out) == 0 {
		if f.cut {
			return 0, io.ErrUnexpectedEOF
		}
		if f.t.Partitioned.Load() {
			return 0, ErrPartitioned
		}
		frame, err := f.fr.Next()
		if err != nil {
			return 0, err
		}
		// Re-check after the (blocking) read: a frame produced while the
		// partition was raised must not slip through.
		if f.t.Partitioned.Load() {
			return 0, ErrPartitioned
		}
		n := int(f.t.frames.Add(1))
		if f.t.DropEvery > 0 && n%f.t.DropEvery == 0 {
			continue
		}
		encoded := encodeFrame(nil, frame)
		if f.t.TruncateEvery > 0 && n%f.t.TruncateEvery == 0 {
			f.out = append(f.out, encoded[:len(encoded)/2]...)
			f.cut = true
			break
		}
		f.out = append(f.out, encoded...)
		if f.t.DupEvery > 0 && n%f.t.DupEvery == 0 {
			f.out = append(f.out, encoded...)
		}
	}
	n := copy(p, f.out)
	f.out = f.out[n:]
	return n, nil
}

func (f *faultStream) Close() error { return f.inner.Close() }

// encodeFrame re-encodes a decoded frame byte-for-byte.
func encodeFrame(dst []byte, fr Frame) []byte {
	switch fr.Kind {
	case FrameRecord:
		return AppendRecordFrame(dst, fr.LSN, fr.RecType, fr.Payload)
	case FrameHeartbeat:
		return AppendHeartbeatFrame(dst, fr.Head, fr.ShipUnixNano, fr.CommitLSN, fr.CommitUnixNano, fr.TraceID)
	case FrameError:
		return AppendErrorFrame(dst, fr.Code, fr.Msg)
	}
	return dst
}
