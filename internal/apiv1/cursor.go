package apiv1

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
)

// Cursor is an opaque pagination token. Clients treat it as a black
// box: pass back exactly what the previous page returned. The encoding
// carries an endpoint-specific position chosen to stay stable across
// platform generations (see the CursorKind constants), which is what
// makes iteration exact against the live writer, plus two provenance
// stamps — the platform generation the issuing page was served from
// and the last-served story's version — recorded for diagnostics and
// future drift-aware serving optimizations; the resume logic itself
// needs only the position.
type Cursor string

// CursorKind namespaces cursors per endpoint family, so a cursor
// minted by one listing cannot be replayed against another.
type CursorKind byte

const (
	// CursorStories paginates /v1/stories; Pos is the next story index
	// in submission order (ascending, append-only, hence stable).
	CursorStories CursorKind = 's'
	// CursorFrontPage paginates /v1/frontpage; Pos is the next
	// promotion-order index to serve, descending. The promotion list is
	// append-only, so the index identifies the same story forever.
	CursorFrontPage CursorKind = 'f'
	// CursorUpcoming paginates /v1/upcoming; Pos is the story id of the
	// last entry served — the next page holds only older (smaller-id)
	// unpromoted stories, so promotions between pages can never
	// duplicate or skip an entry.
	CursorUpcoming CursorKind = 'u'
	// CursorTopUsers paginates /v1/topusers; Pos is the next rank
	// index (exact within a generation; ranks may shift across
	// promotions).
	CursorTopUsers CursorKind = 't'
	// CursorLinks paginates /v1/users/{id}/fans and /friends; Pos is
	// the next index into the (immutable) link list.
	CursorLinks CursorKind = 'l'
)

// ErrInvalidCursor reports a cursor that failed to decode, failed its
// checksum (tampering), or was minted for a different endpoint. The
// server surfaces it as CodeInvalidCursor.
var ErrInvalidCursor = errors.New("apiv1: invalid cursor")

// CursorPayload is the decoded content of a Cursor.
type CursorPayload struct {
	Kind CursorKind
	// Gen is the platform generation the issuing page was served from.
	// Against a sharded store this is the composite generation (the sum
	// of the shard generations).
	Gen uint64
	// Pos is the endpoint-specific position or boundary key (see the
	// CursorKind constants).
	Pos int64
	// Ver is the version counter of the last story served, when the
	// listing is story-shaped (0 otherwise).
	Ver uint64
	// ShardGens is the per-shard generation vector the issuing page was
	// served from — empty against an unsharded store. Like Gen and Ver
	// it is a provenance stamp: resume needs only Pos, but the server
	// rejects a cursor whose vector length disagrees with the serving
	// store's shard count, since positions minted under one shard
	// layout are not meaningful under another.
	ShardGens []uint64
}

// Encode renders the payload as an opaque URL-safe token with an
// integrity checksum.
func (p CursorPayload) Encode() Cursor {
	return Cursor(p.AppendEncoded(nil))
}

// AppendEncoded appends the token Encode returns to dst. The raw bytes
// are assembled on the stack, so a server appending a cursor into a
// pooled response buffer allocates nothing (up to eight shard
// generations; larger vectors spill to the heap).
func (p CursorPayload) AppendEncoded(dst []byte) []byte {
	var raw [1 + 12*binary.MaxVarintLen64 + 4]byte
	b := append(raw[:0], byte(p.Kind))
	b = binary.AppendUvarint(b, p.Gen)
	b = binary.AppendVarint(b, p.Pos)
	b = binary.AppendUvarint(b, p.Ver)
	b = binary.AppendUvarint(b, uint64(len(p.ShardGens)))
	for _, g := range p.ShardGens {
		b = binary.AppendUvarint(b, g)
	}
	b = binary.BigEndian.AppendUint32(b, fnv1a(b))
	return base64.RawURLEncoding.AppendEncode(dst, b)
}

// fnv1a is the 32-bit FNV-1a checksum (hash/fnv's New32a), computed
// inline so encoding never boxes a hash.Hash32.
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// Decode parses and verifies a cursor for the given endpoint family,
// returning ErrInvalidCursor on any malformation, checksum mismatch,
// or kind mismatch.
func (c Cursor) Decode(kind CursorKind) (CursorPayload, error) {
	raw, err := base64.RawURLEncoding.DecodeString(string(c))
	if err != nil || len(raw) < 1+4 {
		return CursorPayload{}, ErrInvalidCursor
	}
	body, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	if binary.BigEndian.Uint32(sum) != fnv1a(body) {
		return CursorPayload{}, ErrInvalidCursor
	}
	p := CursorPayload{Kind: CursorKind(body[0])}
	if p.Kind != kind {
		return CursorPayload{}, ErrInvalidCursor
	}
	rest := body[1:]
	var n int
	if p.Gen, n = binary.Uvarint(rest); n <= 0 {
		return CursorPayload{}, ErrInvalidCursor
	}
	rest = rest[n:]
	if p.Pos, n = binary.Varint(rest); n <= 0 {
		return CursorPayload{}, ErrInvalidCursor
	}
	rest = rest[n:]
	if p.Ver, n = binary.Uvarint(rest); n <= 0 {
		return CursorPayload{}, ErrInvalidCursor
	}
	rest = rest[n:]
	nShards, n := binary.Uvarint(rest)
	if n <= 0 {
		return CursorPayload{}, ErrInvalidCursor
	}
	rest = rest[n:]
	// Each shard generation is at least one byte; a corrupt count can
	// never drive a huge allocation past this bound.
	if nShards > uint64(len(rest)) {
		return CursorPayload{}, ErrInvalidCursor
	}
	if nShards > 0 {
		p.ShardGens = make([]uint64, nShards)
		for i := range p.ShardGens {
			if p.ShardGens[i], n = binary.Uvarint(rest); n <= 0 {
				return CursorPayload{}, ErrInvalidCursor
			}
			rest = rest[n:]
		}
	}
	if len(rest) != 0 {
		return CursorPayload{}, ErrInvalidCursor
	}
	return p, nil
}
