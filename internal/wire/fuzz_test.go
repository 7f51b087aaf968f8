package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"planarflow/internal/obs"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed FuzzDecodeFrame seed corpus")

// fuzzSeeds are the interesting frame shapes the fuzzer starts from: a
// valid untraced request, response and traced request, every rejection
// class (truncations in the header, the trace block and the body,
// flipped trace, payload and CRC bytes, foreign magic, the retired
// version 1, a future version, the two retired op numbers, an unknown
// kind, an oversized length prefix).
func fuzzSeeds(t testing.TB) map[string][]byte {
	valid := mustFrame(t, uint8(OpQuery), 42, []byte(`{"graph":"g","op":"dist","u":0,"v":5}`))
	resp := mustFrame(t, respBit|uint8(StatusOK), 42, []byte(`{"value":7}`))
	tc := obs.TraceContext{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210, Parent: 0x1122334455667788, Hop: 2}
	traced := mustTracedFrame(t, uint8(OpQueryB), 43, tc, []byte{0x01, 0x02, 0x03})
	mut := func(src []byte, i int, x byte) []byte {
		b := append([]byte(nil), src...)
		b[i] ^= x
		return b
	}
	oversize := append([]byte(nil), valid...)
	oversize[12], oversize[13], oversize[14], oversize[15] = 0xff, 0xff, 0xff, 0xff
	return map[string][]byte{
		"valid-query":      valid,
		"valid-response":   resp,
		"traced-query":     traced,
		"empty":            {},
		"truncated-header": valid[:HeaderLen/2],
		"traced-truncated": traced[:HeaderLen+traceLen/2],
		"truncated-body":   valid[:len(valid)-3],
		"bad-magic":        mut(valid, 0, 0xff),
		"version-1":        legacyV1Frame(uint8(OpQuery), 42, []byte(`{"graph":"g","op":"dist","u":0,"v":5}`)),
		"future-version":   mut(valid, 2, 0x05),
		"retired-op-2":     mustFrame(t, 2, 42, []byte(`{"graph":"g","queries":[{"op":"girth"}]}`)),
		"retired-op-6":     mustFrame(t, 6, 42, []byte("g")),
		"bad-kind":         mut(valid, 3, 0x55),
		"traced-flipped":   mut(traced, HeaderLen+4, 0x20),
		"flipped-payload":  mut(valid, HeaderLen+traceLen+2, 0x10),
		"flipped-crc":      mut(valid, len(valid)-1, 0x01),
		"oversized-length": oversize,
		"two-frames":       append(append([]byte(nil), valid...), resp...),
	}
}

// legacyV1Frame hand-encodes the retired traceless layout (version 1:
// header, payload, CRC32(payload)) — bytes an old peer would send.
func legacyV1Frame(kind uint8, id uint64, payload []byte) []byte {
	b := []byte{frameMagic[0], frameMagic[1], 1, kind}
	b = binary.LittleEndian.AppendUint64(b, id)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// TestWriteSeedCorpus (with -update-corpus) materializes the seeds as
// committed corpus files under testdata/fuzz/FuzzDecodeFrame so the
// regular `go test` run replays them and CI fuzzing starts warm.
func TestWriteSeedCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -update-corpus to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := fuzzSeeds(t)
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus seeds to %s", len(seeds), dir)
}

// frameSentinels are the typed decode failures, one per rejection class.
var frameSentinels = []error{ErrBadMagic, ErrVersion, ErrBadKind, ErrOversize, ErrTruncated, ErrChecksum}

// sentinelOf returns the one sentinel err wraps, nil for an untyped error.
func sentinelOf(err error) error {
	for _, s := range frameSentinels {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}

// FuzzDecodeFrame holds the frame parser to its contract on both entry
// points: any byte string either decodes to a frame that re-encodes
// byte-identically, or fails with exactly one typed sentinel — never a
// panic — and the decoder touches nothing beyond the bytes in hand (the
// declared length is validated against the remaining input before the
// payload is viewed, mirroring the snapshot codec's discipline).
// ReadFrame, the entry point the sockets use, must agree with
// DecodeFrame on the frame or on the sentinel class.
func FuzzDecodeFrame(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
		sframe, serr := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			want := sentinelOf(err)
			if want == nil {
				t.Fatalf("untyped decode error: %v", err)
			}
			if len(data) == 0 {
				want = io.EOF // a stream that ends between frames ends cleanly
			}
			if !errors.Is(serr, want) {
				t.Fatalf("DecodeFrame failed with %v, ReadFrame with %v", err, serr)
			}
			return
		}
		if serr != nil {
			t.Fatalf("DecodeFrame accepted what ReadFrame rejects: %v", serr)
		}
		if sframe.Kind != frame.Kind || sframe.ID != frame.ID || sframe.Trace != frame.Trace ||
			!bytes.Equal(sframe.Payload, frame.Payload) {
			t.Fatalf("entry points disagree: DecodeFrame %+v, ReadFrame %+v", frame, sframe)
		}
		if n < frameOverhead || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if len(frame.Payload) > MaxPayload {
			t.Fatalf("payload %d exceeds cap", len(frame.Payload))
		}
		// decode∘encode is the identity on the consumed prefix.
		re, err := AppendFrame(nil, frame.Kind, frame.ID, frame.Trace, frame.Payload)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode diverged from input prefix")
		}
	})
}
