package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrCaughtUp is returned by TailReader.Next when the log currently has
// no record at the reader's position: the reader has consumed everything
// the writer has made visible. Poll again after the writer appends.
var ErrCaughtUp = errors.New("wal: caught up with live log")

// ErrTruncated is returned by TailReader.Next when the reader's position
// lies below the oldest retained segment — the records it wants were
// pruned (Writer.RemoveBelow after a checkpoint). A tailing replica must
// restart from a newer snapshot instead of the log.
var ErrTruncated = errors.New("wal: position below retained log")

// TailReader follows a live log concurrently with a Writer on the same
// directory — the replication source's view of the primary's WAL.
//
// Unlike Reader it never buffers ahead of what it has validated: every
// record is read with ReadAt at an absolute offset, so a partially
// written tail record is simply retried on the next call rather than
// misread. The classification rule that makes this safe is append-only
// visibility: the writer extends the active segment with ordered
// write(2) calls and never rewrites bytes, so any byte the reader
// fetched successfully is final. A short read at the tail of the active
// segment therefore means "in flight" (ErrCaughtUp), while a fully
// readable record that fails its CRC — or a sealed segment that ends
// short of its successor's first LSN — is real corruption.
//
// Segment rotation is followed automatically: when the current segment
// ends cleanly and a successor whose FirstLSN matches the reader's
// position exists, reading continues there. If the position has been
// pruned out from under the reader, Next returns ErrTruncated.
type TailReader struct {
	dir string
	// next is the LSN of the next record to parse; records below skipTo
	// are CRC-verified but not returned (catch-up after (re)opening a
	// segment mid-log).
	next   uint64
	skipTo uint64

	f        *os.File
	segFirst uint64
	segPath  string
	off      int64
	src      io.SectionReader // f from off on, one record's worth
	rec      recordBuf
}

// OpenTailReader returns a tail reader positioned so that the first
// successful Next returns the record with LSN at. Position validation is
// lazy: a position below the retained log surfaces as ErrTruncated from
// Next, not from here.
func OpenTailReader(dir string, at uint64) (*TailReader, error) {
	if dir == "" {
		return nil, errors.New("wal: empty tail directory")
	}
	return &TailReader{dir: dir, next: at}, nil
}

// LSN returns the LSN of the next record Next will return.
func (r *TailReader) LSN() uint64 {
	if r.skipTo > r.next {
		return r.skipTo
	}
	return r.next
}

// Next returns the next record, ErrCaughtUp when the log has nothing
// more yet, ErrTruncated when the position was pruned, or an error
// wrapping ErrCorrupt. The payload is valid only until the next call.
func (r *TailReader) Next() (Record, error) {
	for {
		if r.f == nil {
			if err := r.resolve(); err != nil {
				return Record{}, err
			}
		}
		r.src = *io.NewSectionReader(r.f, r.off, headerSize+MaxRecordSize)
		typ, payload, err := r.rec.readRecord(&r.src)
		switch err {
		case nil:
		case io.EOF, errPartialRecord:
			if err := r.advance(); err != nil {
				return Record{}, err
			}
			continue
		case errRecordTooLong, errRecordCRC:
			// The whole record was readable, so its bytes are final:
			// this is corruption, not an in-flight append.
			return Record{}, fmt.Errorf("%w: %v at %s offset %d", ErrCorrupt, err, r.segPath, r.off)
		default:
			return Record{}, err
		}
		rec := Record{LSN: r.next, Type: typ, Payload: payload}
		r.next++
		r.off += int64(headerSize) + int64(len(payload))
		if rec.LSN < r.skipTo {
			continue
		}
		return rec, nil
	}
}

// resolve opens the segment containing r.LSN(). Records between the
// segment's first LSN and the target position are re-verified by the
// main loop (skipTo) rather than trusted blindly.
func (r *TailReader) resolve() error {
	at := r.LSN()
	segs, err := ListSegments(r.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return ErrCaughtUp
	}
	if at < segs[0].FirstLSN {
		return fmt.Errorf("%w: want lsn %d, oldest retained segment starts at %d",
			ErrTruncated, at, segs[0].FirstLSN)
	}
	start := 0
	for i, s := range segs {
		if s.FirstLSN <= at {
			start = i
		}
	}
	f, err := os.Open(segs[start].Path)
	if err != nil {
		if os.IsNotExist(err) {
			// Pruned between listing and opening.
			return fmt.Errorf("%w: segment %s removed", ErrTruncated, segs[start].Path)
		}
		return err
	}
	r.f = f
	r.segFirst = segs[start].FirstLSN
	r.segPath = segs[start].Path
	r.off = 0
	r.skipTo = at
	r.next = r.segFirst
	return nil
}

// advance classifies a short read at the current position: caught up
// (active segment, nothing more yet), a clean rotation into a successor
// segment, or corruption (a sealed segment ending short of where its
// successor begins).
func (r *TailReader) advance() error {
	segs, err := ListSegments(r.dir)
	if err != nil {
		return err
	}
	var succ *SegmentInfo
	current := false
	for i := range segs {
		if segs[i].FirstLSN == r.segFirst {
			current = true
		}
		if segs[i].FirstLSN > r.segFirst {
			succ = &segs[i]
			break
		}
	}
	if succ == nil {
		return ErrCaughtUp
	}
	if succ.FirstLSN == r.next {
		// Clean end of a sealed segment: continue in the successor.
		r.f.Close()
		r.f = nil
		return nil
	}
	if !current {
		// The segment we were reading (and possibly its successors) was
		// pruned out from under us: the position is gone, not corrupt.
		return fmt.Errorf("%w: segment %s pruned under the reader at lsn %d",
			ErrTruncated, r.segPath, r.next)
	}
	return fmt.Errorf("%w: segment %s ends at lsn %d but %s starts at %d",
		ErrCorrupt, r.segPath, r.next, succ.Path, succ.FirstLSN)
}

// OldestRetained returns the first LSN still covered by the log's
// segments, and ok=false when the directory has no segments. The
// replication source uses it to reject tail requests below the retained
// span before opening a stream.
func OldestRetained(dir string) (lsn uint64, ok bool, err error) {
	segs, err := ListSegments(dir)
	if err != nil || len(segs) == 0 {
		return 0, false, err
	}
	return segs[0].FirstLSN, true, nil
}

// Close releases the reader's file handle.
func (r *TailReader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}
