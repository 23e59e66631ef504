package apiv1

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"
)

func TestCursorRoundTrip(t *testing.T) {
	cases := []CursorPayload{
		{Kind: CursorStories, Gen: 0, Pos: 0, Ver: 0},
		{Kind: CursorStories, Gen: 42, Pos: 17, Ver: 3},
		{Kind: CursorFrontPage, Gen: 1<<63 + 5, Pos: 1<<40 + 1, Ver: 9},
		{Kind: CursorUpcoming, Gen: 7, Pos: -1, Ver: 1},
		{Kind: CursorTopUsers, Gen: 1, Pos: 1023},
		{Kind: CursorLinks, Pos: 500},
		{Kind: CursorStories, Gen: 10, Pos: 4, Ver: 2, ShardGens: []uint64{3, 0, 7, 1 << 50}},
		{Kind: CursorFrontPage, Gen: 1, Pos: 1, ShardGens: []uint64{1}},
	}
	for _, want := range cases {
		c := want.Encode()
		got, err := c.Decode(want.Kind)
		if err != nil {
			t.Fatalf("Decode(%+v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

// TestCursorShardVectorBounded exercises the allocation guard: a
// forged count far beyond the remaining bytes must be rejected (not
// drive a huge make).
func TestCursorShardVectorBounded(t *testing.T) {
	// Build a structurally valid body with an absurd shard count and a
	// correct checksum, bypassing Encode.
	p := CursorPayload{Kind: CursorStories, Gen: 1, Pos: 2, Ver: 3}
	c := p.Encode()
	raw, err := base64.RawURLEncoding.DecodeString(string(c))
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-4]
	// The count field of a vector-free cursor is the final 0 byte;
	// replace it with a giant varint count and re-checksum.
	body = body[:len(body)-1]
	body = append(body, 0xff, 0xff, 0xff, 0xff, 0x0f) // ~64 GiB worth of entries
	forged := appendChecksum(body)
	if _, err := forged.Decode(CursorStories); !errors.Is(err, ErrInvalidCursor) {
		t.Errorf("oversized shard count accepted (err=%v)", err)
	}
}

// appendChecksum seals a hand-built cursor body the way Encode does.
func appendChecksum(body []byte) Cursor {
	h := fnv.New32a()
	h.Write(body)
	sealed := binary.BigEndian.AppendUint32(append([]byte(nil), body...), h.Sum32())
	return Cursor(base64.RawURLEncoding.EncodeToString(sealed))
}

func TestCursorKindMismatch(t *testing.T) {
	c := CursorPayload{Kind: CursorStories, Gen: 3, Pos: 9}.Encode()
	if _, err := c.Decode(CursorUpcoming); !errors.Is(err, ErrInvalidCursor) {
		t.Errorf("cross-endpoint replay accepted: %v", err)
	}
}

// TestCursorTamperDetected flips every byte of a valid token in turn;
// each corruption must be rejected (the checksum covers kind and all
// varint fields).
func TestCursorTamperDetected(t *testing.T) {
	c := CursorPayload{Kind: CursorStories, Gen: 99, Pos: 1234, Ver: 56}.Encode()
	raw, err := base64.RawURLEncoding.DecodeString(string(c))
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		for _, delta := range []byte{1, 0x80} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= delta
			tampered := Cursor(base64.RawURLEncoding.EncodeToString(mut))
			if p, err := tampered.Decode(CursorStories); err == nil {
				t.Errorf("tampered byte %d (^%#x) accepted as %+v", i, delta, p)
			}
		}
	}
}

func TestCursorGarbageRejected(t *testing.T) {
	for _, c := range []Cursor{"", "x", "not base64 !!!", "AAAA", Cursor(base64.RawURLEncoding.EncodeToString([]byte("short")))} {
		if _, err := c.Decode(CursorStories); !errors.Is(err, ErrInvalidCursor) {
			t.Errorf("garbage cursor %q accepted (err=%v)", c, err)
		}
	}
}

// TestCursorAppendEncoded pins the append form to Encode's bytes, its
// inline checksum to hash/fnv's, and its cost to zero allocations when
// dst has room — the property the server's list pages rely on.
func TestCursorAppendEncoded(t *testing.T) {
	p := CursorPayload{Kind: CursorFrontPage, Gen: 77, Pos: 12, Ver: 4, ShardGens: []uint64{40, 37}}
	c := p.Encode()
	dst := make([]byte, 0, 256)
	dst = append(dst, `"next_cursor":"`...)
	got := p.AppendEncoded(dst)
	if want := `"next_cursor":"` + string(c); string(got) != want {
		t.Fatalf("AppendEncoded = %q, want %q", got, want)
	}
	raw, err := base64.RawURLEncoding.DecodeString(string(c))
	if err != nil {
		t.Fatal(err)
	}
	if sealed := appendChecksum(raw[:len(raw)-4]); sealed != c {
		t.Fatalf("inline checksum disagrees with hash/fnv: %q vs %q", c, sealed)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = p.AppendEncoded(dst[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendEncoded: %.1f allocs/op, want 0", allocs)
	}
}
