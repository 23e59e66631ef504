package durable

// checkpoint.go reads and writes the two non-WAL file families of a
// data directory:
//
//   - graph.bin — the immutable social graph, written once at Create.
//     Checkpoints deliberately do not repeat it: the graph never
//     changes, and at production scale it dominates the state size.
//   - checkpoint-%016x.ckpt — a full platform snapshot named by the
//     WAL LSN it covers. Written to a temp file, fsynced, and renamed
//     into place, so a crash mid-checkpoint leaves the previous
//     checkpoint untouched; a trailing CRC32-C makes partial or bit-
//     rotted checkpoints detectable, and recovery falls back to the
//     next older file.
//
// Checkpoint layout (all integers little-endian):
//
//	magic    "DIGGCKP1"
//	lsn      uint64  WAL records applied when the snapshot was taken
//	gen      uint64  platform generation at the snapshot (inspection)
//	glen     uint32  genesis blob length, then the blob
//	slen     uint32  state blob length, then the blob (digg.AppendState)
//	crc      uint32  CRC32-C over everything above

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"diggsim/internal/graph"
)

const (
	ckptMagic  = "DIGGCKP1"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	graphMagic = "DIGGRAF1"
	// graphFile is the immutable social-graph file within a data dir.
	graphFile = "graph.bin"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNoCheckpoint is returned by Open when a data directory holds no
// valid checkpoint: with nothing to anchor replay, the directory is
// not recoverable (see docs/persistence.md for the operator runbook).
var ErrNoCheckpoint = errors.New("durable: no valid checkpoint in data directory")

func checkpointName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix)
}

func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	var lsn uint64
	if _, err := fmt.Sscanf(hex, "%016x", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// listCheckpoints returns the directory's checkpoint files, newest
// (highest LSN) first.
func listCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type ck struct {
		path string
		lsn  uint64
	}
	var cks []ck
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseCheckpointName(e.Name()); ok {
			cks = append(cks, ck{filepath.Join(dir, e.Name()), lsn})
		}
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].lsn > cks[j].lsn })
	paths := make([]string, len(cks))
	for i, c := range cks {
		paths[i] = c.path
	}
	return paths, nil
}

// checkpoint is a decoded checkpoint file.
type checkpoint struct {
	LSN     uint64
	Gen     uint64
	Genesis []byte
	State   []byte
}

// writeCheckpoint atomically persists a checkpoint and returns its
// path. The temp file is fsynced before the rename and the directory
// after it, so once the new name is visible the content is durable.
func writeCheckpoint(dir string, ck checkpoint) (string, error) {
	buf := make([]byte, 0, len(ckptMagic)+16+8+len(ck.Genesis)+len(ck.State)+4)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, ck.LSN)
	buf = binary.LittleEndian.AppendUint64(buf, ck.Gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ck.Genesis)))
	buf = append(buf, ck.Genesis...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ck.State)))
	buf = append(buf, ck.State...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	path := filepath.Join(dir, checkpointName(ck.LSN))
	if err := writeFileAtomic(dir, path, buf); err != nil {
		return "", err
	}
	return path, nil
}

// writeFileAtomic writes data to path via a temp file + fsync + rename
// + directory fsync.
func writeFileAtomic(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// decodeCheckpoint validates and decodes a checkpoint blob; path names
// the source in errors. The replication bootstrap decodes blobs it
// received over the wire through the same function.
func decodeCheckpoint(data []byte, path string) (checkpoint, error) {
	var ck checkpoint
	if err := validateTrailingCRC(data, ckptMagic, path); err != nil {
		return ck, err
	}
	p := data[len(ckptMagic) : len(data)-4]
	if len(p) < 16+8 {
		return ck, fmt.Errorf("durable: %s: checkpoint header truncated", path)
	}
	ck.LSN = binary.LittleEndian.Uint64(p)
	ck.Gen = binary.LittleEndian.Uint64(p[8:])
	p = p[16:]
	glen := binary.LittleEndian.Uint32(p)
	if uint64(glen)+4 > uint64(len(p)) {
		return ck, fmt.Errorf("durable: %s: genesis length past end", path)
	}
	ck.Genesis = p[4 : 4+glen]
	p = p[4+glen:]
	if len(p) < 4 {
		return ck, fmt.Errorf("durable: %s: state length missing", path)
	}
	slen := binary.LittleEndian.Uint32(p)
	if uint64(slen)+4 != uint64(len(p)) {
		return ck, fmt.Errorf("durable: %s: state length mismatch", path)
	}
	ck.State = p[4 : 4+slen]
	return ck, nil
}

// validateTrailingCRC checks the framing both non-WAL file kinds share:
// a magic prefix and a trailing CRC32-C over everything before it.
func validateTrailingCRC(data []byte, magic, what string) error {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return fmt.Errorf("durable: %s: bad magic", what)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("durable: %s: checksum mismatch", what)
	}
	return nil
}

// newestCheckpoint returns the newest valid checkpoint in dir: decoded,
// with its path and its raw bytes, which the decoded blobs alias.
// Recovery, Inspect and the replication source all find checkpoints
// here. Torn or bit-rotted files are skipped in favour of older ones,
// their errors collected into ErrNoCheckpoint if none loads. A listed
// file that has gone was pruned after a newer checkpoint landed, so the
// directory is listed again.
func newestCheckpoint(dir string) (checkpoint, string, []byte, error) {
	for attempt := 0; attempt < 5; attempt++ {
		paths, err := listCheckpoints(dir)
		if err != nil {
			return checkpoint{}, "", nil, err
		}
		var failures []string
		pruned := false
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				pruned = true
				break
			}
			var ck checkpoint
			if err == nil {
				ck, err = decodeCheckpoint(data, path)
			}
			if err == nil {
				return ck, path, data, nil
			}
			failures = append(failures, err.Error())
		}
		if !pruned {
			if len(failures) > 0 {
				return checkpoint{}, "", nil, fmt.Errorf("%w (%s)", ErrNoCheckpoint, strings.Join(failures, "; "))
			}
			return checkpoint{}, "", nil, ErrNoCheckpoint
		}
	}
	return checkpoint{}, "", nil, fmt.Errorf("%w (checkpoints kept churning under the reader)", ErrNoCheckpoint)
}

// pruneCheckpoints removes every checkpoint except the one at keep.
func pruneCheckpoints(dir string, keep uint64) error {
	paths, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	for _, path := range paths {
		if lsn, ok := parseCheckpointName(filepath.Base(path)); ok && lsn != keep {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeGraphFile persists the immutable social graph: magic, node
// count, edge count, varint edge list, trailing CRC32-C.
func writeGraphFile(dir string, g *graph.Graph) error {
	edges := g.Edges()
	buf := make([]byte, 0, len(graphMagic)+10+10+len(edges)*4+4)
	buf = append(buf, graphMagic...)
	buf = binary.AppendUvarint(buf, uint64(g.NumNodes()))
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.AppendVarint(buf, int64(e[0]))
		buf = binary.AppendVarint(buf, int64(e[1]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return writeFileAtomic(dir, filepath.Join(dir, graphFile), buf)
}

// readGraphFile loads and rebuilds the social graph from the bytes
// ReadGraphRaw has framing-checked. Rebuilding goes through the same
// CSR construction as generation, so adjacency order — and therefore
// every replayed visibility cascade — is identical.
func readGraphFile(dir string) (*graph.Graph, error) {
	data, err := ReadGraphRaw(dir)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, graphFile)
	p := data[len(graphMagic) : len(data)-4]
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, fmt.Errorf("durable: %s: bad node count", path)
	}
	p = p[w:]
	// Each edge is at least two 1-byte varints; divide rather than
	// multiply so a huge count cannot overflow past the bound.
	m, w := binary.Uvarint(p)
	if w <= 0 || m > uint64(len(p))/2 {
		return nil, fmt.Errorf("durable: %s: bad edge count", path)
	}
	p = p[w:]
	edges := make([][2]graph.NodeID, m)
	for i := range edges {
		from, w := binary.Varint(p)
		if w <= 0 {
			return nil, fmt.Errorf("durable: %s: truncated edge list", path)
		}
		p = p[w:]
		to, w := binary.Varint(p)
		if w <= 0 {
			return nil, fmt.Errorf("durable: %s: truncated edge list", path)
		}
		p = p[w:]
		edges[i] = [2]graph.NodeID{graph.NodeID(from), graph.NodeID(to)}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("durable: %s: trailing bytes", path)
	}
	return graph.FromEdgeList(int(n), edges)
}
