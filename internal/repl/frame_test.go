package repl

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

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
