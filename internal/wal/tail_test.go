package wal

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"
)

// tailNext drains ready records from a tail reader, failing the test on
// anything other than ErrCaughtUp.
func tailNext(t *testing.T, r *TailReader) []Record {
	t.Helper()
	var recs []Record
	for {
		rec, err := r.Next()
		if errors.Is(err, ErrCaughtUp) {
			return recs
		}
		if err != nil {
			t.Fatalf("tail Next: %v", err)
		}
		p := append([]byte(nil), rec.Payload...)
		recs = append(recs, Record{LSN: rec.LSN, Type: rec.Type, Payload: p})
	}
}

func TestTailReaderFollowsLiveWriter(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment size forces rotations mid-test, so the tail reader
	// crosses sealed-segment boundaries while the writer is live.
	w := openWriter(t, dir, 0, Options{Sync: SyncOS, SegmentSize: 128})
	defer w.Close()

	r, err := OpenTailReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if recs := tailNext(t, r); len(recs) != 0 {
		t.Fatalf("empty log yielded %d records", len(recs))
	}

	var want []Record
	lsn := uint64(0)
	for round := 0; round < 8; round++ {
		for i := 0; i < 5; i++ {
			p := payload(round*5 + i)
			if _, err := w.Append(byte(2+i%3), p); err != nil {
				t.Fatal(err)
			}
			want = append(want, Record{LSN: lsn, Type: byte(2 + i%3), Payload: p})
			lsn++
		}
		got := tailNext(t, r)
		if len(got) != 5 {
			t.Fatalf("round %d: tailed %d records, want 5", round, len(got))
		}
		for i, rec := range got {
			exp := want[len(want)-5+i]
			if rec.LSN != exp.LSN || rec.Type != exp.Type || !bytes.Equal(rec.Payload, exp.Payload) {
				t.Fatalf("round %d record %d: got {%d %d %q}, want {%d %d %q}",
					round, i, rec.LSN, rec.Type, rec.Payload, exp.LSN, exp.Type, exp.Payload)
			}
		}
	}
	if r.LSN() != lsn {
		t.Fatalf("tail position %d, want %d", r.LSN(), lsn)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("test never rotated (%d segments); shrink SegmentSize", len(segs))
	}
}

func TestTailReaderStartsMidLog(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{Sync: SyncOS, SegmentSize: 128})
	defer w.Close()
	for i := 0; i < 20; i++ {
		if _, err := w.Append(2, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenTailReader(dir, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := tailNext(t, r)
	if len(recs) != 7 {
		t.Fatalf("tailed %d records from lsn 13, want 7", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(13+i) || !bytes.Equal(rec.Payload, payload(13+i)) {
			t.Fatalf("record %d: lsn %d payload %q", i, rec.LSN, rec.Payload)
		}
	}
}

func TestTailReaderTruncated(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{Sync: SyncOS, SegmentSize: 64})
	defer w.Close()
	for i := 0; i < 30; i++ {
		if _, err := w.Append(2, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RemoveBelow(25); err != nil {
		t.Fatal(err)
	}
	oldest, ok, err := OldestRetained(dir)
	if err != nil || !ok {
		t.Fatalf("OldestRetained: %d %v %v", oldest, ok, err)
	}
	if oldest == 0 {
		t.Fatal("RemoveBelow removed nothing; shrink SegmentSize")
	}
	r, err := OpenTailReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("tail below retained log returned %v, want ErrTruncated", err)
	}
	// From the oldest retained position the tail works.
	r2, err := OpenTailReader(dir, oldest)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	recs := tailNext(t, r2)
	if len(recs) == 0 || recs[0].LSN != oldest || recs[len(recs)-1].LSN != 29 {
		t.Fatalf("retained tail read %d records starting at %v", len(recs), recs)
	}
}

func TestTailReaderSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{Sync: SyncOS, SegmentSize: 64})
	for i := 0; i < 20; i++ {
		if _, err := w.Append(2, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatal("need a sealed segment")
	}
	// Flip a payload byte in the first (sealed) segment.
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+1] ^= 0xff
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenTailReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, nerr := r.Next()
	if !errors.Is(nerr, ErrCorrupt) {
		t.Fatalf("corrupt sealed segment returned %v, want ErrCorrupt", nerr)
	}
}

// TestTailReaderConcurrent races a live writer against a tailing
// reader: every record must arrive exactly once, in order, with the
// reader treating in-flight tails as caught-up rather than corrupt.
func TestTailReaderConcurrent(t *testing.T) {
	dir := t.TempDir()
	const total = 2000
	w := openWriter(t, dir, 0, Options{Sync: SyncOS, SegmentSize: 4096})
	done := make(chan error, 1)
	go func() {
		defer w.Close()
		for i := 0; i < total; i++ {
			if _, err := w.Append(byte(2+i%4), payload(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	r, err := OpenTailReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := uint64(0)
	deadline := time.Now().Add(30 * time.Second)
	for seen < total {
		rec, err := r.Next()
		if errors.Is(err, ErrCaughtUp) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out at lsn %d", seen)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("tail Next at lsn %d: %v", seen, err)
		}
		if rec.LSN != seen {
			t.Fatalf("got lsn %d, want %d", rec.LSN, seen)
		}
		if !bytes.Equal(rec.Payload, payload(int(seen))) {
			t.Fatalf("lsn %d payload %q", seen, rec.Payload)
		}
		seen++
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
}
