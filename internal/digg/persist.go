package digg

// persist.go is the binary codec behind the durable store
// (internal/durable): a story encoding shared by WAL InstallStory
// records and checkpoints, and a whole-platform state encoding used by
// checkpoint files. The format is integrity-checked one level up (WAL
// record CRCs, checkpoint file CRCs), so the decoders here defend only
// against truncated or structurally nonsensical input — every failure
// is an error, never a panic or an unbounded allocation.
//
// Encoding conventions: varint (zigzag) for ids and times, uvarint for
// counts and lengths, fixed 8-byte little-endian for float bits, one
// byte for booleans. All decode paths validate declared lengths
// against the bytes actually remaining before allocating.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"diggsim/internal/dense"
	"diggsim/internal/graph"
)

// stateVersion tags the platform state encoding; bump on layout change.
// Version 2 added the story ID scheme (idOffset/idStep) so per-shard
// checkpoints are self-describing; version 1 blobs decode as the
// identity scheme.
const stateVersion = 2

// ErrBadEncoding is wrapped by every story/state decode failure.
var ErrBadEncoding = errors.New("digg: bad binary encoding")

// byteDecoder consumes a byte slice with sticky error handling: after
// the first failure every accessor returns zero values, so decode
// sequences read linearly and check the error once.
type byteDecoder struct {
	b   []byte
	err error
}

func (d *byteDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadEncoding, what)
	}
}

func (d *byteDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *byteDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *byteDecoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *byteDecoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *byteDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string length past end of buffer")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a uvarint element count and validates it against the
// bytes remaining (each element occupies at least minBytes), so a
// corrupt count can never drive a huge allocation. The bound divides
// rather than multiplies, so a near-2^64 count cannot overflow past
// the check.
func (d *byteDecoder) count(minBytes int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b))/uint64(minBytes) {
		d.fail("element count past end of buffer")
		return 0
	}
	return int(n)
}

// AppendStory appends the binary encoding of a story — identity,
// promotion outcome, and the full chronological vote list — to b. It
// is the payload of WAL InstallStory records and the per-story unit of
// checkpoint files.
func AppendStory(b []byte, s *Story) []byte {
	b = binary.AppendVarint(b, int64(s.ID))
	b = binary.AppendUvarint(b, uint64(len(s.Title)))
	b = append(b, s.Title...)
	b = binary.AppendVarint(b, int64(s.Submitter))
	b = binary.AppendVarint(b, int64(s.SubmittedAt))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Interest))
	if s.Promoted {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(s.PromotedAt))
	b = binary.AppendUvarint(b, uint64(len(s.Votes)))
	for _, v := range s.Votes {
		b = binary.AppendVarint(b, int64(v.Voter))
		b = binary.AppendVarint(b, int64(v.At))
		if v.InNetwork {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// DecodeStory decodes one story from data, returning the story and the
// unconsumed rest of the buffer.
func DecodeStory(data []byte) (*Story, []byte, error) {
	d := &byteDecoder{b: data}
	s := decodeStory(d)
	if d.err != nil {
		return nil, nil, d.err
	}
	return s, d.b, nil
}

func decodeStory(d *byteDecoder) *Story {
	s := &Story{
		ID:          StoryID(d.varint()),
		Title:       d.str(),
		Submitter:   UserID(d.varint()),
		SubmittedAt: Minutes(d.varint()),
		Interest:    d.f64(),
	}
	s.Promoted = d.u8() != 0
	s.PromotedAt = Minutes(d.varint())
	// A vote is at least voter varint + at varint + in-network byte.
	n := d.count(3)
	if d.err != nil {
		return nil
	}
	s.Votes = make([]Vote, n)
	for i := range s.Votes {
		s.Votes[i] = Vote{
			Voter:     UserID(d.varint()),
			At:        Minutes(d.varint()),
			InNetwork: d.u8() != 0,
		}
	}
	return s
}

// AppendState appends the platform's full mutable state to b: every
// story with its version and compaction status, the promotion order,
// the generation counter, and all comments. Together with the
// immutable social graph and the promotion policy this is everything a
// checkpoint needs to reconstruct the platform exactly — the voter and
// audience sets of live stories are not stored because they are a pure
// function of the vote history and the graph, and RestorePlatform
// rebuilds them.
//
// The caller must exclude mutators for the duration of the call (the
// durable store runs it under the serving layer's write lock).
func (p *Platform) AppendState(b []byte) []byte {
	b = append(b, stateVersion)
	off, step := p.IDScheme()
	b = binary.AppendUvarint(b, uint64(off))
	b = binary.AppendUvarint(b, uint64(step))
	b = binary.AppendUvarint(b, p.gen)
	b = binary.AppendUvarint(b, uint64(len(p.stories)))
	for i, s := range p.stories {
		b = AppendStory(b, s)
		b = binary.AppendUvarint(b, uint64(p.storyVer[i]))
		if p.voted[i] == nil {
			b = append(b, 1) // compacted (or installed pre-compacted)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(p.promoted)))
	for _, id := range p.promoted {
		b = binary.AppendVarint(b, int64(id))
	}
	b = binary.AppendUvarint(b, uint64(len(p.comments)))
	for _, c := range p.comments {
		b = binary.AppendVarint(b, int64(c.Story))
		b = binary.AppendVarint(b, int64(c.User))
		b = binary.AppendVarint(b, int64(c.At))
		b = binary.AppendUvarint(b, uint64(len(c.Text)))
		b = append(b, c.Text...)
	}
	return b
}

// RestorePlatform reconstructs a platform over the given graph and
// promotion policy (nil means the classic default, as in NewPlatform)
// from a state blob produced by AppendState. Live stories get their
// voter and audience sets rebuilt from the vote history, so Digg keeps
// working exactly as before; compacted stories stay compacted. The
// restored platform's Generation, story versions, promotion order and
// reputation ranking are identical to the checkpointed platform's.
func RestorePlatform(g *graph.Graph, policy PromotionPolicy, data []byte) (*Platform, error) {
	d := &byteDecoder{b: data}
	v := d.u8()
	if d.err == nil && (v < 1 || v > stateVersion) {
		return nil, fmt.Errorf("%w: state version %d, want <= %d", ErrBadEncoding, v, stateVersion)
	}
	p := NewPlatform(g, policy)
	if v >= 2 {
		off := StoryID(d.uvarint())
		step := StoryID(d.uvarint())
		if d.err == nil && (step < 1 || off < 0 || off >= step) {
			return nil, fmt.Errorf("%w: invalid ID scheme (offset %d, step %d)", ErrBadEncoding, off, step)
		}
		p.idOffset, p.idStep = off, step
	}
	p.gen = d.uvarint()
	// A serialized story is at least ~20 bytes; 4 is a safe floor that
	// still prevents allocation amplification.
	nStories := d.count(4)
	if d.err != nil {
		return nil, d.err
	}
	p.stories = make([]*Story, 0, nStories)
	p.storyVer = make([]uint32, 0, nStories)
	p.voted = make([]*dense.Set, 0, nStories)
	p.visible = make([]*dense.Set, 0, nStories)
	for i := 0; i < nStories; i++ {
		s := decodeStory(d)
		ver := d.uvarint()
		compacted := d.u8() != 0
		if d.err != nil {
			return nil, d.err
		}
		if want := p.nextID(); s.ID != want {
			return nil, fmt.Errorf("%w: story %d at index %d, want id %d", ErrBadEncoding, s.ID, i, want)
		}
		if len(s.Votes) == 0 {
			return nil, fmt.Errorf("%w: story %d has no votes", ErrBadEncoding, s.ID)
		}
		p.stories = append(p.stories, s)
		p.storyVer = append(p.storyVer, uint32(ver))
		if compacted {
			p.voted = append(p.voted, nil)
			p.visible = append(p.visible, nil)
			continue
		}
		voted := p.acquireSet()
		aud := p.acquireSet()
		for _, v := range s.Votes {
			if v.Voter < 0 || int(v.Voter) >= g.NumNodes() {
				return nil, fmt.Errorf("%w: story %d voter %d outside graph", ErrBadEncoding, s.ID, v.Voter)
			}
			voted.Add(int(v.Voter))
			for _, fan := range g.Fans(v.Voter) {
				aud.Add(int(fan))
			}
		}
		p.voted = append(p.voted, voted)
		p.visible = append(p.visible, aud)
	}
	nPromoted := d.count(1)
	if d.err != nil {
		return nil, d.err
	}
	p.promoted = make([]StoryID, 0, nPromoted)
	for i := 0; i < nPromoted; i++ {
		id := StoryID(d.varint())
		if d.err != nil {
			return nil, d.err
		}
		idx := p.index(id)
		if idx < 0 || !p.stories[idx].Promoted {
			return nil, fmt.Errorf("%w: promotion order references story %d", ErrBadEncoding, id)
		}
		p.promoted = append(p.promoted, id)
		p.rank.Promote(p.stories[idx].Submitter)
	}
	nComments := d.count(4)
	if d.err != nil {
		return nil, d.err
	}
	p.comments = make([]Comment, 0, nComments)
	for i := 0; i < nComments; i++ {
		c := Comment{
			Story: StoryID(d.varint()),
			User:  UserID(d.varint()),
			At:    Minutes(d.varint()),
			Text:  d.str(),
		}
		if d.err != nil {
			return nil, d.err
		}
		p.comments = append(p.comments, c)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after platform state", ErrBadEncoding, len(d.b))
	}
	return p, nil
}
