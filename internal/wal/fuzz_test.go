package wal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes through the segment/record
// reader. The invariants under test: the reader never panics and never
// allocates unboundedly — every input either yields valid records or
// ends in a clean truncation (torn tail) or ErrCorrupt — and a writer
// opened from a reader that reached io.EOF appends right after the
// valid records, leaving no torn tail behind.
func FuzzWALDecode(f *testing.F) {
	// Seed with a valid two-record segment, a torn variant, and a few
	// corrupted mutations so the fuzzer starts at the format boundary.
	valid := appendRecord(nil, 2, []byte("hello wal"))
	valid = appendRecord(valid, 4, []byte{0x01, 0x02, 0x03, 0x04, 0x05})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:headerSize])   // header only
	flipped := append([]byte(nil), valid...)
	flipped[2] ^= 0xff // length corruption
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
			t.Skip()
		}
		r, err := OpenReader(dir, 0)
		if err != nil {
			return
		}
		defer r.Close()
		var want []Record
		var consumed int64
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				// A single segment is always the last segment, so every
				// invalid record must classify as a torn tail, never as
				// mid-log corruption.
				t.Fatalf("single-segment read returned hard error: %v", err)
			}
			rec.Payload = append([]byte(nil), rec.Payload...)
			want = append(want, rec)
			consumed += int64(headerSize) + int64(len(rec.Payload))
			if consumed > int64(len(data)) {
				t.Fatalf("decoded %d bytes from a %d-byte input", consumed, len(data))
			}
		}
		if _, off, torn := r.Torn(); torn {
			if off != consumed {
				t.Fatalf("torn offset %d != consumed %d", off, consumed)
			}
		} else if consumed != int64(len(data)) {
			t.Fatalf("clean read consumed %d of %d bytes", consumed, len(data))
		}
		if r.End() != uint64(len(want)) {
			t.Fatalf("End %d != records %d", r.End(), len(want))
		}

		w, err := OpenWriter(r, 0, Options{Sync: SyncOS})
		if err != nil {
			t.Fatalf("OpenWriter after io.EOF: %v", err)
		}
		added := Record{LSN: uint64(len(want)), Type: 7, Payload: []byte("appended")}
		if _, err := w.Append(added.Type, added.Payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want = append(want, added)
		r2, err := OpenReader(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Close()
		for i := 0; ; i++ {
			rec, err := r2.Next()
			if err == io.EOF {
				if i != len(want) {
					t.Fatalf("reread %d records, want %d", i, len(want))
				}
				break
			}
			if err != nil {
				t.Fatalf("reread: %v", err)
			}
			if i >= len(want) || rec.LSN != want[i].LSN || rec.Type != want[i].Type || !bytes.Equal(rec.Payload, want[i].Payload) {
				t.Fatalf("reread record %d = %+v, want %+v", i, rec, want)
			}
		}
		if _, _, torn := r2.Torn(); torn {
			t.Fatal("log still torn after the writer resumed")
		}
	})
}
