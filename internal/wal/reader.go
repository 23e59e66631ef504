package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Record-level read failures. readRecord reports them and each reader
// classifies them by its own tail rule.
var (
	errPartialRecord = errors.New("partial record")
	errRecordTooLong = errors.New("record length exceeds limit")
	errRecordCRC     = errors.New("record checksum mismatch")
)

// recordBuf is a reader's scratch for one record: the header and a
// payload buffer reused across records, so reading allocates only when
// a record outgrows every earlier one.
type recordBuf struct {
	hdr     [headerSize]byte
	payload []byte
}

// readRecord reads one record from src and checks it: the header's
// length bound before the payload is read, then the CRC. It returns
// io.EOF when src ends exactly at a record boundary, errPartialRecord
// when src ends inside the record, errRecordTooLong or errRecordCRC for
// an invalid record, or src's own error. The payload is valid until the
// next call.
func (b *recordBuf) readRecord(src io.Reader) (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(src, b.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errPartialRecord
		}
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(b.hdr[1:5])
	if length > MaxRecordSize {
		return 0, nil, errRecordTooLong
	}
	if cap(b.payload) < int(length) {
		b.payload = make([]byte, length)
	}
	payload = b.payload[:length]
	if _, err := io.ReadFull(src, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errPartialRecord
		}
		return 0, nil, err
	}
	crc := crc32.Update(0, castagnoli, b.hdr[:5])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(b.hdr[5:9]) {
		return 0, nil, errRecordCRC
	}
	return b.hdr[0], payload, nil
}

// Reader iterates the records of a log in LSN order. It is read-only
// and tolerant of a torn tail; it must not run concurrently with a
// Writer on the same directory. Once it has returned io.EOF, OpenWriter
// resumes the log exactly where it stopped.
type Reader struct {
	dir  string
	segs []SegmentInfo
	// seg is the index of the segment currently being read.
	seg  int
	f    *os.File
	br   *bufio.Reader
	next uint64 // LSN of the next record
	off  int64  // byte offset of the next record within the segment
	rec  recordBuf

	torn bool
	// end is sticky once reading stops: io.EOF at the end of the valid
	// log, otherwise the error that stopped it.
	end error
}

// OpenReader opens the log in dir for reading, positioned so that the
// first Next returns the first record with LSN >= at (pass 0 to read
// the whole log). Records before at inside the starting segment are
// skipped but still CRC-verified, so corruption never passes silently.
func OpenReader(dir string, at uint64) (*Reader, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{dir: dir, segs: segs}
	if len(segs) == 0 {
		return r, nil
	}
	// Start at the last segment whose first LSN is <= at.
	start := 0
	for i, s := range segs {
		if s.FirstLSN <= at {
			start = i
		}
	}
	if err := r.openSegment(start); err != nil {
		return nil, err
	}
	// Skip (but verify) records below the requested position.
	for r.next < at {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

func (r *Reader) openSegment(i int) error {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
	f, err := os.Open(r.segs[i].Path)
	if err != nil {
		return err
	}
	r.seg = i
	r.f = f
	if r.br == nil {
		r.br = bufio.NewReaderSize(f, 1<<16)
	} else {
		r.br.Reset(f)
	}
	r.next = r.segs[i].FirstLSN
	r.off = 0
	return nil
}

// lastSegment reports whether the segment currently being read is the
// final one, where an invalid record means a torn tail rather than
// corruption.
func (r *Reader) lastSegment() bool { return r.seg == len(r.segs)-1 }

// stop ends reading with err, which every later Next returns too.
func (r *Reader) stop(err error) error {
	r.end = err
	return err
}

// fail classifies an invalid record: torn tail in the final segment,
// hard ErrCorrupt anywhere else.
func (r *Reader) fail(what error) error {
	if r.lastSegment() {
		r.torn = true
		return r.stop(io.EOF)
	}
	return r.stop(fmt.Errorf("%w: %v at %s offset %d", ErrCorrupt, what, r.segs[r.seg].Path, r.off))
}

// Next returns the next record, io.EOF at the end of the log (including
// after a truncated tail — check Torn), or an error wrapping ErrCorrupt
// on mid-log corruption. The returned payload is only valid until the
// following Next call.
func (r *Reader) Next() (Record, error) {
	for {
		if r.end != nil {
			return Record{}, r.end
		}
		if len(r.segs) == 0 {
			return Record{}, r.stop(io.EOF)
		}
		typ, payload, err := r.rec.readRecord(r.br)
		if err == io.EOF {
			// Clean end of this segment.
			if r.lastSegment() {
				return Record{}, r.stop(io.EOF)
			}
			// Contiguity check: the next segment must pick up exactly
			// where this one ended, or records have gone missing.
			if r.segs[r.seg+1].FirstLSN != r.next {
				return Record{}, r.stop(fmt.Errorf("%w: segment %s starts at lsn %d, want %d",
					ErrCorrupt, r.segs[r.seg+1].Path, r.segs[r.seg+1].FirstLSN, r.next))
			}
			if err := r.openSegment(r.seg + 1); err != nil {
				return Record{}, r.stop(err)
			}
			continue
		}
		if err != nil {
			return Record{}, r.fail(err)
		}
		rec := Record{LSN: r.next, Type: typ, Payload: payload}
		r.next++
		r.off += int64(headerSize) + int64(len(payload))
		return rec, nil
	}
}

// End returns the LSN one past the last valid record read so far; after
// the reader has returned io.EOF it is the end of the valid log.
func (r *Reader) End() uint64 { return r.next }

// Torn reports whether the log ends in a torn (partially written or
// checksum-failing) tail, and if so in which file and at which byte
// offset the valid data ends. OpenWriter truncates exactly there.
func (r *Reader) Torn() (path string, off int64, torn bool) {
	if !r.torn {
		return "", 0, false
	}
	return r.segs[r.seg].Path, r.off, true
}

// Close releases the reader's file handle.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}
