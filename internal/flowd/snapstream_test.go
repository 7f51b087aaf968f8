package flowd

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"planarflow/internal/store"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed FuzzDecodeSnapStream and FuzzDecodeWirePayload seed corpora")

func TestSnapStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 100, snapMaxChunk - 1, snapMaxChunk, snapMaxChunk + 1, 3*snapMaxChunk + 17} {
		data := make([]byte, size)
		rng.Read(data)
		var buf bytes.Buffer
		if err := EncodeSnapStream(&buf, "graph-a", data); err != nil {
			t.Fatalf("size %d: encode: %v", size, err)
		}
		id, got, err := DecodeSnapStream(&buf, 0)
		if err != nil {
			t.Fatalf("size %d: decode: %v", size, err)
		}
		if id != "graph-a" {
			t.Fatalf("size %d: id %q", size, id)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: data mismatch", size)
		}
	}
}

// snapStreamBytes frames data into memory with the one stream encoder.
func snapStreamBytes(t testing.TB, graph string, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapStream(&buf, graph, data); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapStreamEncodeRejectsBadID(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapStream(&buf, "", nil); !errors.Is(err, ErrSnapStream) {
		t.Fatalf("empty id: %v", err)
	}
	if err := EncodeSnapStream(&buf, strings.Repeat("x", store.MaxIDLen+1), nil); !errors.Is(err, ErrSnapStream) {
		t.Fatalf("oversize id: %v", err)
	}
}

// TestSnapStreamTruncation cuts a valid stream at every byte boundary:
// each prefix must fail with the truncation sentinel (never succeed,
// never panic) — the property the peer-restore fallback ladder rests on.
func TestSnapStreamTruncation(t *testing.T) {
	data := make([]byte, 1000)
	rand.New(rand.NewSource(2)).Read(data)
	full := snapStreamBytes(t, "gg", data)
	for cut := 0; cut < len(full); cut++ {
		_, _, err := DecodeSnapStream(bytes.NewReader(full[:cut]), 0)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", cut, len(full))
		}
		if !errors.Is(err, ErrSnapStreamTruncated) {
			t.Fatalf("cut at %d: %v, want truncation sentinel", cut, err)
		}
	}
}

func TestSnapStreamCorruption(t *testing.T) {
	data := []byte("some snapshot bytes that matter")
	full := snapStreamBytes(t, "g", data)
	mut := func(i int, x byte) []byte {
		b := append([]byte(nil), full...)
		b[i] ^= x
		return b
	}
	cases := map[string][]byte{
		"bad-magic":       mut(0, 0xff),
		"bad-version":     mut(2, 0x05),
		"flipped-payload": mut(10+2, 0x01), // inside the first chunk
		"flipped-crc":     mut(len(full)-1, 0x01),
	}
	for name, b := range cases {
		if _, _, err := DecodeSnapStream(bytes.NewReader(b), 0); !errors.Is(err, ErrSnapStream) {
			t.Fatalf("%s: %v, want ErrSnapStream", name, err)
		}
	}
}

func TestSnapStreamSizeCap(t *testing.T) {
	data := make([]byte, 4096)
	full := snapStreamBytes(t, "g", data)
	if _, _, err := DecodeSnapStream(bytes.NewReader(full), 100); !errors.Is(err, ErrSnapStreamSize) {
		t.Fatalf("size cap: %v", err)
	}
	if _, _, err := DecodeSnapStream(bytes.NewReader(full), 4096); err != nil {
		t.Fatalf("exact budget rejected: %v", err)
	}
}

// snapFuzzSeeds are the stream shapes the fuzzer starts from.
func snapFuzzSeeds(t testing.TB) map[string][]byte {
	valid := snapStreamBytes(t, "g", []byte("snapshot bytes"))
	empty := snapStreamBytes(t, "empty", nil)
	two := snapStreamBytes(t, "ab", bytes.Repeat([]byte{7}, 600))
	mut := func(i int, x byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= x
		return b
	}
	bigChunk := append([]byte(nil), valid...)
	bigChunk[6+1], bigChunk[6+1+1], bigChunk[6+1+2], bigChunk[6+1+3] = 0xff, 0xff, 0xff, 0xff
	return map[string][]byte{
		"valid":            valid,
		"valid-empty-data": empty,
		"valid-two-chunks": two,
		"empty":            {},
		"truncated-header": valid[:3],
		"truncated-chunk":  valid[:len(valid)-10],
		"truncated-term":   valid[:len(valid)-2],
		"bad-magic":        mut(0, 0xff),
		"future-version":   mut(2, 0x06),
		"zero-id-len":      mut(4, valid[4]),
		"flipped-payload":  mut(6+1+4, 0x10),
		"flipped-crc":      mut(len(valid)-1, 0x01),
		"oversized-chunk":  bigChunk,
	}
}

// TestWriteSnapSeedCorpus (with -update-corpus) materializes the seeds
// as committed corpus files under testdata/fuzz/FuzzDecodeSnapStream —
// the same discipline as the wire frame fuzzer.
func TestWriteSnapSeedCorpus(t *testing.T) {
	writeSeedCorpus(t, "FuzzDecodeSnapStream", snapFuzzSeeds(t))
}

// writeSeedCorpus (with -update-corpus) writes seeds as the committed
// corpus of the named fuzz target; without the flag it skips.
func writeSeedCorpus(t *testing.T, target string, seeds map[string][]byte) {
	if !*updateCorpus {
		t.Skip("run with -update-corpus to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus seeds to %s", len(seeds), dir)
}

// FuzzDecodeSnapStream holds the stream decoder to its contract: any
// byte string either decodes to (id, data) that re-encodes to a stream
// decoding identically, or fails with exactly one typed sentinel —
// never a panic, never an allocation beyond the declared capped sizes.
func FuzzDecodeSnapStream(f *testing.F) {
	for _, data := range snapFuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		id, data, err := DecodeSnapStream(bytes.NewReader(stream), 1<<20)
		if err != nil {
			if !errors.Is(err, ErrSnapStream) && !errors.Is(err, ErrSnapStreamTruncated) &&
				!errors.Is(err, ErrSnapStreamSize) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if len(id) == 0 || len(id) > store.MaxIDLen {
			t.Fatalf("decoded id length %d out of range", len(id))
		}
		// decode∘encode∘decode is the identity on the logical content.
		re := snapStreamBytes(t, id, data)
		id2, data2, err := DecodeSnapStream(bytes.NewReader(re), 1<<20)
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if id2 != id || !bytes.Equal(data2, data) {
			t.Fatal("round trip diverged")
		}
	})
}
