package repl

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReplFrameDecode feeds arbitrary bytes through the frame decoder.
// The invariant under test: Next never panics, never fabricates a
// frame from damaged bytes (the CRC covers everything), and classifies
// every input as frames + clean EOF, a torn tail, or corruption.
func FuzzReplFrameDecode(f *testing.F) {
	valid := AppendRecordFrame(nil, 12, 2, []byte("hello repl"))
	valid = AppendHeartbeatFrame(valid, 13, 1_700_000_000_000_000_000, 12, 1_699_999_999_000_000_000, 0xfeed)
	valid = AppendErrorFrame(valid, ErrCodeInternal, "boom")
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:frameHeaderSize])
	flipped := append([]byte(nil), valid...)
	flipped[2] ^= 0xff // length corruption
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		frames := 0
		for {
			frame, err := fr.Next()
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return
			}
			if errors.Is(err, ErrFrameCorrupt) {
				return
			}
			if err != nil {
				t.Fatalf("unexpected error class: %v", err)
			}
			if frame.Kind < FrameRecord || frame.Kind > FrameError {
				t.Fatalf("decoded frame with kind %d", frame.Kind)
			}
			if frames++; frames > len(data)/frameHeaderSize+1 {
				t.Fatalf("decoded %d frames from %d bytes", frames, len(data))
			}
		}
	})
}
