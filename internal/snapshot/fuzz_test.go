package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"planarflow/internal/planar"
)

// fuzzFixture caches the fuzz target's graph and a valid snapshot of it;
// building substrates per-input would drown the fuzzer in setup cost.
var fuzzFixture struct {
	once sync.Once
	g    *planar.Graph
	data []byte
	// The tri40 golden fixture's graph: an input carrying its fingerprint
	// decodes against it, so the seeds cut from that fixture (deep tree,
	// Child chains, both kinds) reach the section decoders too.
	tri   *planar.Graph
	triFP uint64
}

func fuzzSetup(t testing.TB) (*planar.Graph, []byte) {
	fuzzFixture.once.Do(func() {
		rng := planar.NewRand(7)
		g := planar.WithRandomWeights(planar.Grid(5, 6), rng, 1, 9, 1, 16)
		c := buildContents(t, g)
		var buf bytes.Buffer
		if err := Encode(&buf, g, c); err != nil {
			t.Fatal(err)
		}
		fuzzFixture.g = g
		fuzzFixture.data = buf.Bytes()
		fuzzFixture.tri = goldenFixtures[1].graph(t)
		fuzzFixture.triFP = Fingerprint(fuzzFixture.tri)
	})
	return fuzzFixture.g, fuzzFixture.data
}

// fuzzGraphFor picks the graph an input is decoded against: the tri40
// fixture's when the header names it, the package fixture's otherwise.
func fuzzGraphFor(t testing.TB, data []byte) *planar.Graph {
	g, _ := fuzzSetup(t)
	if len(data) >= 15 && binary.LittleEndian.Uint64(data[7:15]) == fuzzFixture.triFP {
		return fuzzFixture.tri
	}
	return g
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed FuzzDecodeSnapshot seed corpus")

// TestWriteSeedCorpus (with -update-corpus) materializes the current
// version's seed inputs as committed corpus files under
// testdata/fuzz/FuzzDecodeSnapshot, so the regular `go test` run replays
// them and CI fuzzing starts from the interesting shapes: a valid snapshot,
// the same with a prices section, a future version, and one labeling
// section per thing version 2 refuses (strictInputs). The version-1 seeds
// beside them (valid, truncations, flipped bytes, future-version — now a
// version-2 header over version-1 bodies — and the strict-* edits of
// version-1 sections) were written by the version-1 encoder and stay as
// they are: no seed of theirs is rewritten here.
func TestWriteSeedCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -update-corpus to rewrite the seed corpus")
	}
	_, valid := fuzzSetup(t)
	futureVersion := append([]byte(nil), valid...)
	futureVersion[6] = Version + 1
	withPrices, _ := pricesInputs(t)
	seeds := map[string][]byte{
		"valid-v2":          valid,
		"valid-v2-minoragg": withPrices,
		"future-version-v3": futureVersion,
	}
	for name, data := range strictInputs(t) {
		seeds[name] = data
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
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

// FuzzDecodeSnapshot holds the decoder to its contract: any byte string
// either decodes cleanly or fails with one of the typed sentinels —
// never a panic, never an unbounded allocation. Inputs that do decode
// must re-encode to a snapshot that decodes (decode∘encode is the
// identity on valid version-2 input; version 1 re-encodes as version 2).
func FuzzDecodeSnapshot(f *testing.F) {
	_, valid := fuzzSetup(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("PFSNAP"))
	f.Add(valid[:len(valid)/2]) // truncated mid-section
	f.Add(valid[:15])           // truncated header
	bad := append([]byte(nil), valid...)
	bad[6] = Version + 1 // version skew
	f.Add(bad)
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0xff // payload corruption (checksum must catch)
	f.Add(flip)
	crc := append([]byte(nil), valid...)
	crc[len(crc)-1] ^= 0x01 // flipped CRC byte
	f.Add(crc)

	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraphFor(t, data)
		c, err := Decode(bytes.NewReader(data), g, lengthsFor(g))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrFingerprint) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, g, c); err != nil {
			t.Fatalf("decoded contents failed to re-encode: %v", err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes()), g, lengthsFor(g)); err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
	})
}
