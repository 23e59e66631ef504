package repl

// frame.go is the replication wire format: the framing a primary uses
// to ship WAL records to followers over an HTTP chunked stream.
//
// Each frame is self-delimiting and self-checking, mirroring the WAL's
// own record layout so the two formats fail the same way:
//
//	kind    byte    frame kind (record, heartbeat, error)
//	length  uint32  body length, little-endian
//	crc     uint32  CRC32-C over kind, length and body, little-endian
//	body    []byte
//
// Bodies by kind:
//
//	record     lsn uint64 LE · recType byte · payload
//	heartbeat  head uint64 LE · shipUnixNano int64 LE
//	           · commitLSN uint64 LE · commitUnixNano int64 LE · traceID uint64 LE
//	error      code byte · utf-8 message (stream-terminating)
//
// A record frame carries one WAL record verbatim — same LSN, same type
// byte, same payload bytes — so a follower can append it to its own log
// unchanged. Heartbeats flow on a schedule, even while a stream is
// catching up, and end every burst of records. They carry the primary's
// head LSN and ship wall-clock time, which is all a follower needs to
// measure its lag, plus the primary's newest commit stamp — the
// commit's LSN, its wall-clock instant and the trace ID of the write
// that produced it — so a follower can measure commit→visible
// freshness end to end and join its apply to the originating request's
// trace. The stamp is all zero until the source commits its first local
// write; a heartbeat body of any length but 40 bytes is corrupt. An
// error frame is the primary's last word on a stream (log truncated
// under the reader, corruption); the connection closes after it.
//
// The decoder never trusts the wire: oversized lengths, bad CRCs and
// unknown kinds are ErrFrameCorrupt, and a frame cut off mid-body is
// io.ErrUnexpectedEOF — the normal way a dropped connection presents.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"diggsim/internal/wal"
)

// Frame kinds.
const (
	FrameRecord    byte = 1 // one WAL record
	FrameHeartbeat byte = 2 // head position, ship time, commit stamp; no state change
	FrameError     byte = 3 // stream-terminating error from the source
)

// Error-frame codes.
const (
	ErrCodeGone     byte = 1 // requested LSN no longer retained; re-bootstrap
	ErrCodeCorrupt  byte = 2 // source's log is corrupt past this point
	ErrCodeInternal byte = 3 // unspecified source-side failure; retry
)

const (
	frameHeaderSize = 9
	// maxFrameBody bounds a frame body: the largest WAL record payload
	// plus the record frame's own lsn+type prefix.
	maxFrameBody = wal.MaxRecordSize + 9
)

// ErrFrameCorrupt reports a frame that is well-delimited but wrong:
// bad checksum, unknown kind, impossible length, or a body that does
// not parse for its kind.
var ErrFrameCorrupt = errors.New("repl: corrupt frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded replication frame. Kind selects which of the
// remaining fields are meaningful.
type Frame struct {
	Kind byte

	// FrameRecord: one WAL record, verbatim. Payload aliases the
	// reader's internal buffer and is valid only until the next call.
	LSN     uint64
	RecType byte
	Payload []byte

	// FrameHeartbeat: the source's head LSN, the wall-clock
	// nanoseconds at which it shipped the frame, and its newest commit
	// stamp — all zero on nodes that have taken no local writes (pure
	// followers, or a primary before its first commit).
	Head           uint64
	ShipUnixNano   int64
	CommitLSN      uint64
	CommitUnixNano int64
	TraceID        uint64

	// FrameError: why the source is ending the stream.
	Code byte
	Msg  string
}

// beginFrame appends a frame header with the length and checksum left
// blank; the caller appends the body straight into dst and seals the
// frame with endFrame(dst, start), start being len(dst) before the call.
func beginFrame(dst []byte, kind byte) []byte {
	return append(dst, kind, 0, 0, 0, 0, 0, 0, 0, 0)
}

// endFrame fills in the length and checksum of the frame that begins at
// dst[start], computing the CRC over the bytes in place.
func endFrame(dst []byte, start int) []byte {
	frame := dst[start:]
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(frame)-frameHeaderSize))
	crc := crc32.Checksum(frame[:5], castagnoli)
	crc = crc32.Update(crc, castagnoli, frame[frameHeaderSize:])
	binary.LittleEndian.PutUint32(frame[5:9], crc)
	return dst
}

// AppendRecordFrame appends a record frame carrying one WAL record. It
// allocates only when dst must grow.
func AppendRecordFrame(dst []byte, lsn uint64, recType byte, payload []byte) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameRecord)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, recType)
	dst = append(dst, payload...)
	return endFrame(dst, start)
}

// AppendHeartbeatFrame appends a heartbeat frame carrying the source's
// head, ship time and newest commit stamp (zero before the first local
// commit).
func AppendHeartbeatFrame(dst []byte, head uint64, shipUnixNano int64, commitLSN uint64, commitUnixNano int64, traceID uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameHeartbeat)
	dst = binary.LittleEndian.AppendUint64(dst, head)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(shipUnixNano))
	dst = binary.LittleEndian.AppendUint64(dst, commitLSN)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(commitUnixNano))
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	return endFrame(dst, start)
}

// AppendErrorFrame appends a stream-terminating error frame.
func AppendErrorFrame(dst []byte, code byte, msg string) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameError)
	dst = append(dst, code)
	dst = append(dst, msg...)
	return endFrame(dst, start)
}

// FrameReader decodes a stream of frames. It is not safe for
// concurrent use.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r in a frame decoder.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next frame. io.EOF means the stream ended cleanly
// on a frame boundary; io.ErrUnexpectedEOF means it was cut off inside
// a frame (the usual shape of a dropped connection); ErrFrameCorrupt
// means the bytes themselves are wrong. The returned frame's Payload
// and Msg alias an internal buffer valid until the next call.
func (fr *FrameReader) Next() (Frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.br, hdr[:1]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return Frame{}, err // EOF here is a clean boundary
	}
	if _, err := io.ReadFull(fr.br, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	kind := hdr[0]
	length := binary.LittleEndian.Uint32(hdr[1:5])
	want := binary.LittleEndian.Uint32(hdr[5:9])
	if kind < FrameRecord || kind > FrameError {
		return Frame{}, fmt.Errorf("%w: unknown kind %d", ErrFrameCorrupt, kind)
	}
	if length > maxFrameBody {
		return Frame{}, fmt.Errorf("%w: body length %d exceeds limit", ErrFrameCorrupt, length)
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	body := fr.buf[:length]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	crc := crc32.Checksum(hdr[:5], castagnoli)
	crc = crc32.Update(crc, castagnoli, body)
	if crc != want {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return decodeBody(kind, body)
}

// decodeBody parses a checksum-verified body for its kind.
func decodeBody(kind byte, body []byte) (Frame, error) {
	f := Frame{Kind: kind}
	switch kind {
	case FrameRecord:
		if len(body) < 9 {
			return Frame{}, fmt.Errorf("%w: record frame body too short", ErrFrameCorrupt)
		}
		f.LSN = binary.LittleEndian.Uint64(body[0:8])
		f.RecType = body[8]
		f.Payload = body[9:]
	case FrameHeartbeat:
		if len(body) != 40 {
			return Frame{}, fmt.Errorf("%w: heartbeat frame body must be 40 bytes", ErrFrameCorrupt)
		}
		f.Head = binary.LittleEndian.Uint64(body[0:8])
		f.ShipUnixNano = int64(binary.LittleEndian.Uint64(body[8:16]))
		f.CommitLSN = binary.LittleEndian.Uint64(body[16:24])
		f.CommitUnixNano = int64(binary.LittleEndian.Uint64(body[24:32]))
		f.TraceID = binary.LittleEndian.Uint64(body[32:40])
	case FrameError:
		if len(body) < 1 {
			return Frame{}, fmt.Errorf("%w: error frame body too short", ErrFrameCorrupt)
		}
		f.Code = body[0]
		f.Msg = string(body[1:])
	}
	return f, nil
}
