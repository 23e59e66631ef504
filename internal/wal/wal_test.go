package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// readAll drains a reader, returning the records (payloads copied).
func readAll(t *testing.T, dir string, at uint64) ([]Record, *Reader) {
	t.Helper()
	r, err := OpenReader(dir, at)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		rec.Payload = append([]byte(nil), rec.Payload...)
		out = append(out, rec)
	}
	return out, r
}

// openWriter opens the log in dir for appending the way recovery does:
// a Reader drains it and the writer resumes where the Reader stopped.
func openWriter(tb testing.TB, dir string, start uint64, opts Options) *Writer {
	tb.Helper()
	r, err := OpenReader(dir, start)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			tb.Fatal(err)
		}
	}
	w, err := OpenWriter(r, start, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

func payload(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, "xxxxxxxxxxxxxxxx"))
}

func TestRoundTripAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{SegmentSize: 256, Sync: SyncOS})
	const n = 100
	for i := 0; i < n; i++ {
		lsn, err := w.Append(byte(1+i%5), payload(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != uint64(i) {
			t.Fatalf("append %d: lsn %d", i, lsn)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	recs, r := readAll(t, dir, 0)
	defer r.Close()
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i) || rec.Type != byte(1+i%5) || !bytes.Equal(rec.Payload, payload(i)) {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
	}
	if _, _, torn := r.Torn(); torn {
		t.Fatal("clean log reported torn")
	}
	if r.End() != n {
		t.Fatalf("End = %d, want %d", r.End(), n)
	}
}

func TestReaderSeek(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{SegmentSize: 256, Sync: SyncOS})
	for i := 0; i < 50; i++ {
		if _, err := w.Append(2, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, r := readAll(t, dir, 33)
	defer r.Close()
	if len(recs) != 17 || recs[0].LSN != 33 {
		t.Fatalf("seek read %d records first lsn %v, want 17 from 33", len(recs), recs)
	}
}

func TestResumeAppend(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{SegmentSize: 512, Sync: SyncAlways})
	for i := 0; i < 20; i++ {
		if _, err := w.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A writer resumes only where a reader stopped: one that has not
	// read to io.EOF yet is refused.
	r, err := OpenReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWriter(r, 0, Options{}); err == nil {
		t.Fatal("OpenWriter accepted a reader that has not returned io.EOF")
	}
	r.Close()
	w = openWriter(t, dir, 0, Options{SegmentSize: 512, Sync: SyncAlways})
	if got := w.NextLSN(); got != 20 {
		t.Fatalf("resumed NextLSN = %d, want 20", got)
	}
	for i := 20; i < 30; i++ {
		if _, err := w.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, r := readAll(t, dir, 0)
	defer r.Close()
	if len(recs) != 30 {
		t.Fatalf("read %d records, want 30", len(recs))
	}
}

// chop removes n trailing bytes from the newest segment, simulating a
// torn trailing write.
func chop(t *testing.T, dir string, n int64) {
	t.Helper()
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	if err := os.Truncate(last.Path, last.Size-n); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedOnRead(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{Sync: SyncOS})
	for i := 0; i < 10; i++ {
		if _, err := w.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	chop(t, dir, 5) // cut into the last record
	recs, r := readAll(t, dir, 0)
	defer r.Close()
	if len(recs) != 9 {
		t.Fatalf("read %d records after torn tail, want 9", len(recs))
	}
	if _, _, torn := r.Torn(); !torn {
		t.Fatal("torn tail not reported")
	}
	// Reopening the writer truncates the tail and resumes at LSN 9.
	w = openWriter(t, dir, 0, Options{Sync: SyncOS})
	if got := w.NextLSN(); got != 9 {
		t.Fatalf("NextLSN after torn tail = %d, want 9", got)
	}
	if _, err := w.Append(7, []byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, r2 := readAll(t, dir, 0)
	defer r2.Close()
	if len(recs) != 10 || recs[9].Type != 7 {
		t.Fatalf("post-recovery log wrong: %d records", len(recs))
	}
	if _, _, torn := r2.Torn(); torn {
		t.Fatal("log still torn after writer truncation")
	}
}

func TestMidLogCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{SegmentSize: 256, Sync: SyncOS})
	for i := 0; i < 50; i++ {
		if _, err := w.Append(1, payload(i)); err != nil {
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
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	// Flip a payload byte in the middle of the first segment.
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir, 0)
	if err != nil && errors.Is(err, ErrCorrupt) {
		return // corruption may surface during the constructor's seek
	}
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("mid-log corruption read through to EOF without error")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			if _, err := OpenWriter(r, 0, Options{}); err == nil {
				t.Fatal("OpenWriter accepted a reader that stopped at corruption")
			}
			return
		}
	}
}

func TestMissingSegmentIsHardError(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{SegmentSize: 256, Sync: SyncOS})
	for i := 0; i < 50; i++ {
		if _, err := w.Append(1, payload(i)); err != nil {
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
	if len(segs) < 3 {
		t.Fatalf("need at least 3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1].Path); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("gap in segment sequence read through to EOF")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			return
		}
	}
}

func TestAppendBatchGroupsRecords(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{Sync: SyncAlways})
	entries := make([]Entry, 100)
	for i := range entries {
		entries[i] = Entry{Type: 4, Payload: payload(i)}
	}
	first, err := w.AppendBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first lsn = %d", first)
	}
	if got := w.NextLSN(); got != 100 {
		t.Fatalf("NextLSN = %d, want 100", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, r := readAll(t, dir, 0)
	defer r.Close()
	if len(recs) != 100 {
		t.Fatalf("read %d records, want 100", len(recs))
	}
}

func TestRemoveBelow(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 0, Options{SegmentSize: 256, Sync: SyncOS})
	for i := 0; i < 60; i++ {
		if _, err := w.Append(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	cut := segs[2].FirstLSN // everything below segment 2 must go
	if err := w.RemoveBelow(cut); err != nil {
		t.Fatal(err)
	}
	left, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if left[0].FirstLSN != cut {
		t.Fatalf("oldest surviving segment starts at %d, want %d", left[0].FirstLSN, cut)
	}
	// The surviving log must still read cleanly from the cut.
	recs, r := readAll(t, dir, cut)
	defer r.Close()
	if len(recs) != 60-int(cut) || recs[0].LSN != cut {
		t.Fatalf("post-truncation read: %d records from %d", len(recs), recs[0].LSN)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenWriterStartsAtGivenLSN(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, 42, Options{Sync: SyncOS})
	if got := w.NextLSN(); got != 42 {
		t.Fatalf("NextLSN = %d, want 42", got)
	}
	if _, err := w.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].FirstLSN != 42 {
		t.Fatalf("segment = %+v", segs)
	}
	if filepath.Base(segs[0].Path) != segmentName(42) {
		t.Fatalf("segment name %s", segs[0].Path)
	}

	// A log whose records end below start is stale: its segments go
	// and a fresh log starts at start.
	w = openWriter(t, dir, 50, Options{Sync: SyncOS})
	if got := w.NextLSN(); got != 50 {
		t.Fatalf("NextLSN over a stale log = %d, want 50", got)
	}
	if _, err := w.Append(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, r := readAll(t, dir, 0)
	defer r.Close()
	if len(recs) != 1 || recs[0].LSN != 50 || recs[0].Type != 2 {
		t.Fatalf("log after a stale reopen: %+v", recs)
	}
	if segs, err := ListSegments(dir); err != nil || len(segs) != 1 || segs[0].FirstLSN != 50 {
		t.Fatalf("segments after a stale reopen: %+v, %v", segs, err)
	}
}
