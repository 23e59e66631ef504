// Package wal implements the segmented append-only binary log
// underneath the durable store (internal/durable): the generic record
// framing, the segment files, the writer with its three fsync
// policies, and the reader with torn-tail truncation.
//
// # On-disk format
//
// A log is a directory of segment files named wal-%016x.seg, where the
// hex field is the LSN (log sequence number, a zero-based record
// index) of the segment's first record. Segments are contiguous: a
// segment's first LSN equals the previous segment's first LSN plus its
// record count, which is what lets a reader start mid-log without
// scanning earlier files.
//
// Each record is a fixed header followed by an opaque payload:
//
//	type     uint8      record type tag (opaque to this package)
//	length   uint32 LE  payload length (<= MaxRecordSize)
//	crc      uint32 LE  CRC32-C over type, length and payload
//	payload  length bytes
//
// # Failure semantics
//
// A crash can leave a partially written record only at the tail of the
// newest segment. The reader therefore treats any framing or CRC
// failure in the final segment as a torn tail: reading stops at the
// last valid record and Torn reports the cut. The same failure in any
// earlier segment — or a gap between a segment's record count and the
// next segment's first LSN — cannot be produced by a crash and is
// reported as ErrCorrupt, a hard error. OpenWriter is built from the
// Reader that replayed the log, and physically truncates the torn tail
// that Reader found before resuming appends.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const (
	// headerSize is the fixed record header: type (1) + length (4) +
	// CRC32-C (4).
	headerSize = 1 + 4 + 4

	// MaxRecordSize bounds a single record's payload. Anything larger
	// in a header is treated as corruption, which keeps the reader from
	// allocating unbounded memory on garbage input.
	MaxRecordSize = 64 << 20

	segPrefix = "wal-"
	segSuffix = ".seg"
)

// DefaultSegmentSize is the rotation threshold when Options.SegmentSize
// is zero.
const DefaultSegmentSize = 64 << 20

// DefaultSyncEvery is the background flush cadence of SyncInterval when
// Options.SyncEvery is zero.
const DefaultSyncEvery = 50 * time.Millisecond

// castagnoli is the CRC32-C table; the polynomial with hardware support
// on both amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports mid-log corruption: an invalid record that cannot
// be explained by a torn trailing write. Recovery must not proceed
// past it silently.
var ErrCorrupt = errors.New("wal: log corrupt")

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every Append/AppendBatch: a record is on
	// stable storage before the call returns. The safest and slowest
	// policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background flusher every SyncEvery: a
	// crash can lose at most the last interval's records, while the
	// append path never waits on the disk.
	SyncInterval
	// SyncOS never fsyncs: the OS page cache decides. A process crash
	// loses nothing (the kernel has the writes); a machine crash can
	// lose whatever the kernel had not flushed.
	SyncOS
)

// String names the policy using the flag spelling (-fsync always|interval|os).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOS:
		return "os"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag spelling.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "os":
		return SyncOS, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or os)", s)
	}
}

// Options parameterizes a Writer. The zero value means SyncAlways,
// DefaultSegmentSize rotation and DefaultSyncEvery flushing.
type Options struct {
	// SegmentSize is the soft rotation threshold: a segment that would
	// exceed it rotates before the next append. A single record or
	// batch larger than the threshold still lands in one segment.
	SegmentSize int64
	// Sync is the fsync policy.
	Sync SyncPolicy
	// SyncEvery is the background flush cadence under SyncInterval.
	SyncEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	return o
}

// Record is one log record as returned by the reader.
type Record struct {
	// LSN is the record's zero-based index in the whole log.
	LSN uint64
	// Type is the record type tag (opaque to this package).
	Type byte
	// Payload is the record body. It is valid only until the next
	// Next call on the reader that produced it.
	Payload []byte
}

// Entry is one record to append: a type tag and an opaque payload.
type Entry struct {
	Type    byte
	Payload []byte
}

// appendRecord appends the framed encoding of one record to b.
func appendRecord(b []byte, typ byte, payload []byte) []byte {
	var hdr [headerSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:5])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[5:9], crc)
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// SegmentInfo describes one segment file on disk.
type SegmentInfo struct {
	// Path is the absolute or dir-relative file path.
	Path string
	// FirstLSN is the LSN of the segment's first record.
	FirstLSN uint64
	// Size is the file size in bytes.
	Size int64
}

// segmentName returns the file name of the segment whose first record
// has the given LSN.
func segmentName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, lsn, segSuffix)
}

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	var lsn uint64
	if _, err := fmt.Sscanf(hex, "%016x", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// ListSegments returns the log's segment files in LSN order. A
// directory with no segments returns an empty slice and no error.
func ListSegments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []SegmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		lsn, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, SegmentInfo{
			Path:     filepath.Join(dir, e.Name()),
			FirstLSN: lsn,
			Size:     info.Size(),
		})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].FirstLSN < segs[j].FirstLSN })
	return segs, nil
}

// RemoveSegments deletes every segment file in dir. OpenWriter uses it
// before starting a fresh log, and the durable store to clear the
// debris of an interrupted create.
func RemoveSegments(dir string) error {
	segs, err := ListSegments(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(s.Path); err != nil {
			return err
		}
	}
	return nil
}
