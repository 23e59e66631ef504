package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// appendFrame appends a frame of any kind around an arbitrary body, so
// tests can build frames the Append* encoders never emit.
func appendFrame(dst []byte, kind byte, body []byte) []byte {
	start := len(dst)
	dst = beginFrame(dst, kind)
	dst = append(dst, body...)
	return endFrame(dst, start)
}

// TestAppendRecordFrameInPlace pins the record frame's wire bytes
// against an encoding built field by field, at the start of a buffer
// and after earlier frames, and checks that framing into a buffer with
// room allocates nothing.
func TestAppendRecordFrameInPlace(t *testing.T) {
	payload := []byte("payload-bytes")
	want := []byte{FrameRecord, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(want[1:5], uint32(9+len(payload)))
	want = binary.LittleEndian.AppendUint64(want, 42)
	want = append(want, 3)
	want = append(want, payload...)
	tab := crc32.MakeTable(crc32.Castagnoli)
	crc := crc32.Update(crc32.Checksum(want[:5], tab), tab, want[9:])
	binary.LittleEndian.PutUint32(want[5:9], crc)

	if got := AppendRecordFrame(nil, 42, 3, payload); !bytes.Equal(got, want) {
		t.Fatalf("record frame = %x, want %x", got, want)
	}
	prefix := AppendHeartbeatFrame(nil, 1, 2, 0, 0, 0)
	got := AppendRecordFrame(append([]byte(nil), prefix...), 42, 3, payload)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("record frame after a heartbeat = %x, want %x%x", got, prefix, want)
	}

	buf := make([]byte, 0, 4<<10)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendRecordFrame(buf[:0], 42, 3, payload)
	})
	if allocs != 0 {
		t.Fatalf("AppendRecordFrame allocated %.1f times per frame, want 0", allocs)
	}
}

// BenchmarkAppendRecordFrame frames a digg-sized record into a
// reused stream buffer, as the source does for every shipped record.
func BenchmarkAppendRecordFrame(b *testing.B) {
	payload := make([]byte, 24)
	buf := make([]byte, 0, 64<<10)
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderSize + 9 + len(payload)))
	var lsn uint64
	for b.Loop() {
		if len(buf) > 60<<10 {
			buf = buf[:0]
		}
		lsn++
		buf = AppendRecordFrame(buf, lsn, 2, payload)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendRecordFrame(buf, 42, 3, []byte("payload-bytes"))
	buf = AppendHeartbeatFrame(buf, 99, 123456789, 0, 0, 0)
	buf = AppendRecordFrame(buf, 43, 4, nil)
	buf = AppendErrorFrame(buf, ErrCodeGone, "pruned")

	fr := NewFrameReader(bytes.NewReader(buf))

	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameRecord || f.LSN != 42 || f.RecType != 3 || string(f.Payload) != "payload-bytes" {
		t.Fatalf("frame 1 = %+v", f)
	}
	f, err = fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameHeartbeat || f.Head != 99 || f.ShipUnixNano != 123456789 {
		t.Fatalf("frame 2 = %+v", f)
	}
	f, err = fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameRecord || f.LSN != 43 || f.RecType != 4 || len(f.Payload) != 0 {
		t.Fatalf("frame 3 = %+v", f)
	}
	f, err = fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameError || f.Code != ErrCodeGone || f.Msg != "pruned" {
		t.Fatalf("frame 4 = %+v", f)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestFrameHeartbeatCommitRoundTrip(t *testing.T) {
	stamped := AppendHeartbeatFrame(nil, 99, 123456789, 97, 111222333, 0xdeadbeefcafe0123)
	buf := AppendHeartbeatFrame(append([]byte(nil), stamped...), 100, 223456789, 0, 0, 0)

	fr := NewFrameReader(bytes.NewReader(buf))
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameHeartbeat || f.Head != 99 || f.ShipUnixNano != 123456789 ||
		f.CommitLSN != 97 || f.CommitUnixNano != 111222333 || f.TraceID != 0xdeadbeefcafe0123 {
		t.Fatalf("stamped heartbeat = %+v", f)
	}
	// The chaos transport re-frames what it decodes; the stamp must
	// survive byte for byte or chaos runs never see commit freshness.
	if got := encodeFrame(nil, f); !bytes.Equal(got, stamped) {
		t.Fatalf("encodeFrame(stamped heartbeat) = %x, want %x", got, stamped)
	}
	// A pre-commit heartbeat after a stamped one must decode with all
	// commit fields zero — the reader's buffer is reused between calls.
	f, err = fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameHeartbeat || f.Head != 100 || f.ShipUnixNano != 223456789 ||
		f.CommitLSN != 0 || f.CommitUnixNano != 0 || f.TraceID != 0 {
		t.Fatalf("pre-commit heartbeat = %+v", f)
	}
}

func TestFrameHeartbeatBadLength(t *testing.T) {
	// A heartbeat body of any length other than 40 is corrupt,
	// including the retired 16-byte form.
	for _, n := range []int{0, 15, 16, 17, 24, 39, 41} {
		full := appendFrame(nil, FrameHeartbeat, make([]byte, n))
		fr := NewFrameReader(bytes.NewReader(full))
		if _, err := fr.Next(); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("heartbeat body len %d: %v, want ErrFrameCorrupt", n, err)
		}
	}
}

func TestFrameTornStream(t *testing.T) {
	full := AppendRecordFrame(nil, 7, 2, []byte("some-payload"))
	// Every proper prefix of a frame must decode as an unexpected EOF,
	// never as EOF, corruption, or a bogus frame.
	for cut := 1; cut < len(full); cut++ {
		fr := NewFrameReader(bytes.NewReader(full[:cut]))
		if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	full := AppendRecordFrame(nil, 7, 2, []byte("some-payload"))
	// Flipping any single byte must surface as corruption (or as a
	// frame decode error), never as a silently different frame.
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		fr := NewFrameReader(bytes.NewReader(mut))
		f, err := fr.Next()
		if err == nil && (f.LSN != 7 || f.RecType != 2 || string(f.Payload) != "some-payload") {
			t.Fatalf("flip at %d: decoded altered frame %+v without error", i, f)
		}
		if err == nil {
			t.Fatalf("flip at %d: decoded successfully", i)
		}
		if !errors.Is(err, ErrFrameCorrupt) && err != io.ErrUnexpectedEOF && err != io.EOF {
			t.Fatalf("flip at %d: unexpected error %v", i, err)
		}
	}
}

func TestFrameOversizedLength(t *testing.T) {
	full := AppendRecordFrame(nil, 1, 2, []byte("x"))
	full[1] = 0xff
	full[2] = 0xff
	full[3] = 0xff
	full[4] = 0xff
	fr := NewFrameReader(bytes.NewReader(full))
	if _, err := fr.Next(); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized length: %v, want ErrFrameCorrupt", err)
	}
}
