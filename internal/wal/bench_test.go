package wal

import (
	"testing"
)

// BenchmarkWALAppend measures the raw append path — encode, CRC,
// buffered write — with the OS sync policy, so the number reflects the
// log machinery rather than the disk's fsync latency (that cost is the
// policy knob, measured end to end by BenchmarkDurableBatchDigg).
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	w := openWriter(b, dir, 0, Options{Sync: SyncOS})
	defer w.Close()
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.SetBytes(int64(headerSize + len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(4, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendBatch measures group commit: 100 records per
// AppendBatch call, one write syscall for the group.
func BenchmarkWALAppendBatch(b *testing.B) {
	dir := b.TempDir()
	w := openWriter(b, dir, 0, Options{Sync: SyncOS})
	defer w.Close()
	const group = 100
	payload := make([]byte, 64)
	entries := make([]Entry, group)
	for i := range entries {
		entries[i] = Entry{Type: 4, Payload: payload}
	}
	b.SetBytes(int64(group * (headerSize + len(payload))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.AppendBatch(entries); err != nil {
			b.Fatal(err)
		}
	}
}
