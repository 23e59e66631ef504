package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"diggsim/internal/obs"
)

// Append latency (the buffered group write) and fsync latency are
// tracked separately: the write is where group-commit batching shows
// up, the fsync is where the disk does.
var (
	histAppend = obs.Default.Histogram("diggsim_wal_append_seconds", "",
		"WAL group append latency: one buffered write of the encoded record group, excluding fsync.")
	histFsync = obs.Default.Histogram("diggsim_wal_fsync_seconds", "",
		"WAL fsync latency (per group under SyncAlways; per flush otherwise).")
)

// Writer appends records to a segmented log. All methods are safe for
// concurrent use — the interval flusher shares the writer with the
// append path — though the durable store additionally serializes
// appends behind the serving layer's write lock (single-writer
// discipline at the command level).
//
// Any write or sync error is sticky: once the disk has failed, every
// subsequent call returns the first error rather than silently
// diverging the log from the applied state.
type Writer struct {
	mu   sync.Mutex
	dir  string
	opts Options

	f        *os.File
	segStart uint64 // first LSN of the active segment
	size     int64  // bytes written to the active segment
	buf      []byte // encode scratch
	dirty    bool   // unsynced bytes pending
	err      error  // sticky failure
	// next is the LSN of the next record to append. It is written under
	// mu, only once the records below it are written, and read without
	// mu by NextLSN.
	next atomic.Uint64

	flushStop chan struct{}
	flushDone chan struct{}
}

// OpenWriter opens the log that r has read for appending. r must have
// returned io.EOF, so the writer resumes exactly where it stopped: it
// cuts the torn tail r found and appends at r.End(). When the log is
// empty, or its valid records end below start, the writer removes its
// segments and starts a fresh log at start instead. That one rule
// covers a new log, a log seeded from a checkpoint at start, and a
// stale log that a newer checkpoint supersedes (possible under SyncOS),
// so new records never reuse LSNs a later recovery would skip.
func OpenWriter(r *Reader, start uint64, opts Options) (*Writer, error) {
	if r.end != io.EOF {
		return nil, errors.New("wal: OpenWriter needs a reader that has returned io.EOF")
	}
	opts = opts.withDefaults()
	w := &Writer{dir: r.dir, opts: opts}
	if len(r.segs) == 0 || r.End() < start {
		if err := RemoveSegments(r.dir); err != nil {
			return nil, err
		}
		if err := w.createSegment(start); err != nil {
			return nil, err
		}
	} else if err := w.resume(r); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// resume reopens the segment r ended in for appending after its last
// valid record.
func (w *Writer) resume(r *Reader) error {
	last := r.segs[r.seg]
	f, err := os.OpenFile(last.Path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if r.torn {
		// Cut the file back to the last valid record so new appends
		// start on a clean boundary.
		if err := f.Truncate(r.off); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(r.off, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segStart = last.FirstLSN
	w.size = r.off
	w.next.Store(r.next)
	return nil
}

// createSegment opens a fresh segment whose first record will be lsn.
// Caller holds mu (or is the constructor).
func (w *Writer) createSegment(lsn uint64) error {
	path := filepath.Join(w.dir, segmentName(lsn))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Make the segment's directory entry durable so a crash right after
	// rotation cannot lose the whole file.
	if w.opts.Sync != SyncOS {
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f = f
	w.segStart = lsn
	w.size = 0
	w.next.Store(lsn)
	return nil
}

// syncDir fsyncs a directory, making renames and creates within it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// rotateLocked closes the active segment (syncing it unless the policy
// is SyncOS) and opens the next one.
func (w *Writer) rotateLocked() error {
	if w.dirty && w.opts.Sync != SyncOS {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.dirty = false
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	return w.createSegment(w.next.Load())
}

// Append appends one record and applies the sync policy. It returns
// the record's LSN.
func (w *Writer) Append(typ byte, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("wal: record payload %d bytes exceeds MaxRecordSize", len(payload))
	}
	w.buf = appendRecord(w.buf[:0], typ, payload)
	return w.commitLocked(1)
}

// AppendBatch appends all entries as one write to the active segment —
// one syscall and, under SyncAlways, one fsync for the whole group.
// This is the group-commit primitive behind the batch endpoints and
// the live stepper: durability cost is paid per batch, not per record.
// It returns the LSN of the first entry.
func (w *Writer) AppendBatch(entries []Entry) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if len(entries) == 0 {
		return w.next.Load(), nil
	}
	w.buf = w.buf[:0]
	for _, e := range entries {
		if len(e.Payload) > MaxRecordSize {
			return 0, fmt.Errorf("wal: record payload %d bytes exceeds MaxRecordSize", len(e.Payload))
		}
		w.buf = appendRecord(w.buf, e.Type, e.Payload)
	}
	return w.commitLocked(uint64(len(entries)))
}

// commitLocked writes the encoded group in w.buf as one write and
// applies the sync policy. Caller holds mu.
func (w *Writer) commitLocked(n uint64) (uint64, error) {
	// Rotate first if this group would push a non-empty segment past
	// the threshold; a group larger than the threshold still lands in
	// one segment (the threshold is soft), keeping batches atomic with
	// respect to segment boundaries.
	if w.size > 0 && w.size+int64(len(w.buf)) > w.opts.SegmentSize {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return 0, err
		}
	}
	first := w.next.Load()
	writeStart := time.Now()
	_, err := w.f.Write(w.buf)
	histAppend.Observe(time.Since(writeStart))
	if err != nil {
		w.err = err
		return 0, err
	}
	w.size += int64(len(w.buf))
	w.next.Add(n)
	w.dirty = true
	if w.opts.Sync == SyncAlways {
		syncStart := time.Now()
		err := w.f.Sync()
		histFsync.Observe(time.Since(syncStart))
		if err != nil {
			w.err = err
			return 0, err
		}
		w.dirty = false
	}
	return first, nil
}

// Sync flushes appended records to stable storage regardless of
// policy. The durable store calls it before taking a checkpoint and on
// graceful shutdown.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if !w.dirty {
		return nil
	}
	syncStart := time.Now()
	err := w.f.Sync()
	histFsync.Observe(time.Since(syncStart))
	if err != nil {
		w.err = err
		return err
	}
	w.dirty = false
	return nil
}

// flushLoop is the SyncInterval background flusher.
func (w *Writer) flushLoop() {
	defer close(w.flushDone)
	ticker := time.NewTicker(w.opts.SyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-ticker.C:
			// A failed background sync sticks in w.err; the next append
			// surfaces it to the caller.
			_ = w.Sync()
		}
	}
}

// NextLSN returns the LSN the next appended record will receive. It
// takes no lock, so it never waits out an fsync: every record below it
// has been written to the log (though perhaps not yet synced), so a
// TailReader on the same directory can read it.
func (w *Writer) NextLSN() uint64 { return w.next.Load() }

// Rotate seals the active segment and opens a fresh one starting at
// the next LSN. The checkpointer calls it before RemoveBelow so the
// retained log begins exactly at the checkpoint — without it the
// active segment pins every record it holds, however old. An empty
// active segment is already positioned at the next LSN and is left
// alone.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil || w.size == 0 {
		return w.err
	}
	if err := w.rotateLocked(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// RemoveBelow deletes every segment all of whose records are below
// lsn. The segment containing lsn (and the active segment) always
// survive, so the log always covers [checkpoint, head].
func (w *Writer) RemoveBelow(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	segs, err := ListSegments(w.dir)
	if err != nil {
		return err
	}
	for i, s := range segs {
		// A segment's records end where the next segment begins; the
		// last (active) segment is never removable.
		if i+1 >= len(segs) || segs[i+1].FirstLSN > lsn || s.FirstLSN == w.segStart {
			break
		}
		if err := os.Remove(s.Path); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the background flusher (if any), syncs outstanding
// records, and closes the active segment.
func (w *Writer) Close() error {
	if w.flushStop != nil {
		close(w.flushStop)
		<-w.flushDone
		w.flushStop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
