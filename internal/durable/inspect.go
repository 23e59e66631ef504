package durable

// inspect.go is the read-only operator's view of a data directory,
// backing `diggstats -wal DIR`. It never mutates anything: torn tails
// are reported, not truncated.

import (
	"fmt"
	"io"
	"sort"

	"diggsim/internal/wal"
)

// SegmentStats describes one WAL segment as found on disk.
type SegmentStats struct {
	Path     string
	FirstLSN uint64
	Bytes    int64
	// Records is the number of valid records in the segment.
	Records int
}

// CheckpointStats describes the newest valid checkpoint.
type CheckpointStats struct {
	Path string
	// LSN is the WAL position the checkpoint covers.
	LSN uint64
	// Generation is the checkpointed platform generation.
	Generation uint64
	// StateBytes is the size of the platform state blob.
	StateBytes int
	// Genesis is the provenance blob recorded at store creation.
	Genesis []byte
}

// Info is the inspection report for a data directory.
type Info struct {
	Dir      string
	Segments []SegmentStats
	// RecordsByType counts valid records by type name.
	RecordsByType map[string]int
	// FirstLSN/EndLSN is the replayable span held on disk.
	FirstLSN, EndLSN uint64
	// Torn reports a torn trailing record (normal after a hard stop;
	// recovery will truncate it).
	Torn bool
	// Corrupt carries a mid-log corruption error, nil for a healthy
	// log.
	Corrupt error
	// Checkpoint is the newest valid checkpoint, nil if none loads.
	Checkpoint *CheckpointStats
	// CheckpointErr records why no checkpoint loaded, nil otherwise.
	CheckpointErr error
	// ReplayRecords is the number of records recovery would replay on
	// Open: those at or after the checkpoint LSN.
	ReplayRecords int
}

// Inspect scans a data directory and reports its shape: segments and
// record counts, the newest valid checkpoint, and the replay span an
// Open would process.
func Inspect(dir string) (*Info, error) {
	segs, err := wal.ListSegments(dir)
	if err != nil {
		return nil, err
	}
	info := &Info{Dir: dir, RecordsByType: make(map[string]int)}
	// Preallocate so the &info.Segments[i] pointers below stay valid —
	// an append-grown slice would leave them targeting stale arrays.
	info.Segments = make([]SegmentStats, 0, len(segs))
	perSeg := make(map[uint64]*SegmentStats, len(segs))
	for _, s := range segs {
		info.Segments = append(info.Segments, SegmentStats{
			Path: s.Path, FirstLSN: s.FirstLSN, Bytes: s.Size,
		})
		perSeg[s.FirstLSN] = &info.Segments[len(info.Segments)-1]
	}
	if len(segs) > 0 {
		info.FirstLSN = segs[0].FirstLSN
	}
	info.EndLSN = info.FirstLSN

	if ck, path, _, err := newestCheckpoint(dir); err == nil {
		info.Checkpoint = &CheckpointStats{
			Path: path, LSN: ck.LSN, Generation: ck.Gen,
			StateBytes: len(ck.State),
			Genesis:    append([]byte(nil), ck.Genesis...),
		}
	} else {
		info.CheckpointErr = err
	}

	if len(segs) > 0 {
		r, err := wal.OpenReader(dir, info.FirstLSN)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		// Segment boundaries, ascending, to attribute records.
		bounds := make([]uint64, len(segs))
		for i, s := range segs {
			bounds[i] = s.FirstLSN
		}
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				info.Corrupt = err
				break
			}
			info.RecordsByType[recordTypeName(rec.Type)]++
			i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > rec.LSN }) - 1
			if i >= 0 {
				perSeg[bounds[i]].Records++
			}
			if info.Checkpoint != nil && rec.LSN >= info.Checkpoint.LSN {
				info.ReplayRecords++
			}
		}
		info.EndLSN = r.End()
		_, _, info.Torn = r.Torn()
		if ck := info.Checkpoint; ck != nil && info.Corrupt == nil {
			// The gap Open refuses.
			info.Corrupt = checkLogStart(info.FirstLSN, ck.LSN)
		}
	}
	return info, nil
}

// String renders the report for the command line.
func (info *Info) String() string {
	out := fmt.Sprintf("data directory: %s\n", info.Dir)
	out += fmt.Sprintf("segments: %d, log span [%d, %d)\n", len(info.Segments), info.FirstLSN, info.EndLSN)
	for _, s := range info.Segments {
		out += fmt.Sprintf("  %s  first-lsn=%d records=%d bytes=%d\n", s.Path, s.FirstLSN, s.Records, s.Bytes)
	}
	// Stable output order for the type counts.
	types := make([]string, 0, len(info.RecordsByType))
	for t := range info.RecordsByType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		out += fmt.Sprintf("records[%s]: %d\n", t, info.RecordsByType[t])
	}
	if info.Torn {
		out += "tail: torn trailing record (recovery will truncate it)\n"
	}
	if info.Corrupt != nil {
		out += fmt.Sprintf("CORRUPT: %v\n", info.Corrupt)
	}
	if info.Checkpoint != nil {
		ck := info.Checkpoint
		out += fmt.Sprintf("checkpoint: %s\n  lsn=%d generation=%d state=%dB\n", ck.Path, ck.LSN, ck.Generation, ck.StateBytes)
		if len(ck.Genesis) > 0 {
			out += fmt.Sprintf("  genesis: %s\n", ck.Genesis)
		}
		out += fmt.Sprintf("replay on open: %d records\n", info.ReplayRecords)
	} else {
		out += fmt.Sprintf("checkpoint: NONE VALID (%v) — directory is not recoverable\n", info.CheckpointErr)
	}
	return out
}
