package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// errFrameTooLarge is the reference splitter's refusal of a length above
// maxFrame.
var errFrameTooLarge = errors.New("frame too large")

// splitFrames is the reference frameReader is held to: read the length, then
// the payload, with nothing clever in between. (It checks that the payload is
// there before allocating it, so that a fuzzed 16 MiB claim costs nothing.)
func splitFrames(stream []byte) (frames [][]byte, err error) {
	r := bytes.NewReader(stream)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return frames, err
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > maxFrame {
			return frames, errFrameTooLarge
		}
		if n > r.Len() {
			return frames, io.ErrUnexpectedEOF
		}
		frame := make([]byte, n)
		io.ReadFull(r, frame)
		frames = append(frames, frame)
	}
}

// chunkedReader hands a stream over in pieces whose sizes the fuzzer picks,
// and checks at every Read how much room the caller holds open: the space
// offered for bytes that have not arrived may not exceed the bytes that have
// by more than frameChunk. What the caller holds for this peer is then at
// most twice what the peer sent plus one chunk, whatever lengths it claimed.
type chunkedReader struct {
	t        *testing.T
	stream   []byte
	sizes    []byte
	received int
	reads    int
}

func (r *chunkedReader) Read(p []byte) (int, error) {
	if cap(p) > r.received+frameChunk {
		r.t.Fatalf("reader holds %d bytes open after receiving %d", cap(p), r.received)
	}
	if r.received == len(r.stream) {
		return 0, io.EOF
	}
	size := 1
	if len(r.sizes) > 0 {
		// 1..256 bytes, or a few KiB at a time so that long streams finish
		size += int(r.sizes[r.reads%len(r.sizes)])
		if size > 128 {
			size *= 64
		}
	}
	r.reads++
	n := copy(p, r.stream[r.received:min(len(r.stream), r.received+size)])
	r.received += n
	return n, nil
}

// streamEnded reports whether err says the byte stream ran out. frameReader
// reports a stream that ends inside a frame as io.EOF or io.ErrUnexpectedEOF
// depending on which of its reads noticed; its one caller drops the
// connection on either, so the two are one outcome here.
func streamEnded(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// checkFrameReader feeds frameReader a stream in pieces and holds it to
// splitFrames: the same frames in the same order, then the same first error
// (the stream ended, or a length above maxFrame); no frame above maxFrame; and
// never more memory held than chunkedReader allows.
func checkFrameReader(t *testing.T, stream, sizes []byte) {
	want, wantErr := splitFrames(stream)
	fr := newFrameReader(&chunkedReader{t: t, stream: stream, sizes: sizes})
	for i := 0; ; i++ {
		got, err := fr.next()
		if err != nil {
			if i != len(want) {
				t.Fatalf("stopped with %v after %d frames, want %d", err, i, len(want))
			}
			if streamEnded(err) != streamEnded(wantErr) {
				t.Fatalf("after %d frames: %v, the reference says %v", i, err, wantErr)
			}
			return
		}
		if i == len(want) {
			t.Fatalf("frame %d of %d bytes, where the reference stops with %v", i, len(got), wantErr)
		}
		if len(got) > maxFrame || !bytes.Equal(got, want[i]) {
			t.Fatalf("frame %d: %d bytes, want the %d-byte frame of the reference", i, len(got), len(want[i]))
		}
	}
}

// FuzzFrameReader: arbitrary bytes, handed over in arbitrary pieces.
func FuzzFrameReader(f *testing.F) {
	var stream []byte
	for _, n := range []int{0, 1, 1000, frameBuffer - 4, frameBuffer - 3, frameChunk + 1} {
		stream = append(stream, frameWire(n)...)
	}
	f.Add(stream, []byte{0, 7, 255})
	f.Add(stream[:len(stream)-1], []byte{200})
	f.Add(frameWire(10)[:3], []byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1), []byte{3})
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxFrame), "ten bytes."...), []byte{0})
	f.Fuzz(checkFrameReader)
}

// TestFrameReaderLargeFrames runs the fuzz target's check on frames too large
// to make good fuzz seeds, one arriving whole and one that stops three
// quarters in: the buffer grows several times, which is where the memory
// bound bites (append's capacity rounding broke it from 256 KiB received).
func TestFrameReaderLargeFrames(t *testing.T) {
	whole := frameWire(20*frameChunk + 5)
	checkFrameReader(t, whole, []byte{255})
	checkFrameReader(t, whole[:15*frameChunk], []byte{255, 130})
}
