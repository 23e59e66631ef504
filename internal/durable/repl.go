package durable

// repl.go is the durable store's replication surface: the applied-LSN
// position, the apply path a follower feeds streamed primary records
// through, and the checkpoint handoff a replica bootstraps from.
//
// A follower's data directory is a normal durable data directory. It is
// seeded with the primary's graph file and newest checkpoint
// (SeedReplica), opened with Open like any other, and then every record
// streamed from the primary is appended to the follower's own WAL at
// the same LSN it holds in the primary's (ApplyReplicated) before being
// applied to the wrapped platform. Identical records at identical LSNs
// means the follower checkpoints on its own schedule, recovers from its
// own disk after a crash, resumes the stream from AppliedLSN, and — on
// promotion — is a primary without any state conversion.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"diggsim/internal/wal"
)

// AppliedLSN returns the WAL position one past the last record this
// store has logged and applied — the position a replication stream
// resumes from.
func (s *Store) AppliedLSN() uint64 { return s.w.NextLSN() }

// ApplyReplicated appends a contiguous run of replicated records
// (already framed as type+payload entries, starting at LSN lsn) to the
// store's own WAL and applies them to the platform. The store's log
// position must equal lsn — the replication layer deduplicates and
// orders frames; a mismatch here means the stream broke and is a hard
// error. Rejected commands (refused identically on the primary) are not
// errors. Requires the caller's write synchronization, like any
// command.
func (s *Store) ApplyReplicated(lsn uint64, entries []wal.Entry) error {
	if s.err != nil {
		return s.err
	}
	if s.batching {
		return errors.New("durable: ApplyReplicated inside a batch")
	}
	if got := s.w.NextLSN(); got != lsn {
		return fmt.Errorf("durable: replicated records start at lsn %d, log is at %d", lsn, got)
	}
	if len(entries) == 0 {
		return nil
	}
	if _, err := s.w.AppendBatch(entries); err != nil {
		s.err = err
		return err
	}
	for i, e := range entries {
		if _, err := applyRecord(s.p, e.Type, e.Payload); err != nil {
			s.err = fmt.Errorf("durable: applying replicated lsn %d: %w", lsn+uint64(i), err)
			return s.err
		}
	}
	return s.afterWrite()
}

// ReadNewestCheckpointRaw returns the raw bytes of the newest valid
// checkpoint file in dir plus its LSN — the blob a replica bootstrap
// ships, found exactly as recovery finds it.
func ReadNewestCheckpointRaw(dir string) (data []byte, lsn uint64, err error) {
	ck, _, data, err := newestCheckpoint(dir)
	return data, ck.LSN, err
}

// ReadGraphRaw returns the raw bytes of dir's immutable social-graph
// file, CRC-verified.
func ReadGraphRaw(dir string) ([]byte, error) {
	path := filepath.Join(dir, graphFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := validateTrailingCRC(data, graphMagic, path); err != nil {
		return nil, err
	}
	return data, nil
}

// SeedReplica initializes dir as a replica data directory from a
// primary's raw graph and checkpoint blobs (as served by the
// replication source). Both blobs are CRC-validated before anything is
// written; the directory must not already contain a store. After
// seeding, Open recovers the replica exactly as it would a primary that
// checkpointed and lost its log segments.
func SeedReplica(dir string, graphData, ckptData []byte) error {
	if err := validateTrailingCRC(graphData, graphMagic, "replica graph blob"); err != nil {
		return err
	}
	ck, err := decodeCheckpoint(ckptData, "replica checkpoint blob")
	if err != nil {
		return err
	}
	if err := ensureDir(dir); err != nil {
		return err
	}
	if Exists(dir) {
		return fmt.Errorf("durable: %s already contains a store (wipe it before re-seeding)", dir)
	}
	if err := removeDebris(dir); err != nil {
		return err
	}
	if err := writeFileAtomic(dir, filepath.Join(dir, graphFile), graphData); err != nil {
		return err
	}
	return writeFileAtomic(dir, filepath.Join(dir, checkpointName(ck.LSN)), ckptData)
}
