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

// TestWriteSeedCorpus (with -update-corpus) materializes the seed inputs
// as committed corpus files under testdata/fuzz/FuzzDecodeSnapshot, so
// the regular `go test` run replays them and CI fuzzing starts from the
// interesting shapes: a valid snapshot, truncations at several depths, a
// flipped payload bit, a flipped CRC byte, a future version, and — cut from
// the tri40 golden fixture, CRCs refreshed — one label section per thing a
// vector over the tree's layout cannot hold (strictInputs), one tree section
// per thing a decomposition cannot be (treeStrictInputs), then the valid
// snapshot with a prices section and one per thing that section cannot say
// (pricesInputs).
func TestWriteSeedCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -update-corpus to rewrite the seed corpus")
	}
	_, valid := fuzzSetup(t)
	futureVersion := append([]byte(nil), valid...)
	futureVersion[6] = Version + 1
	flippedPayload := append([]byte(nil), valid...)
	flippedPayload[len(flippedPayload)/2] ^= 0xff
	flippedCRC := append([]byte(nil), valid...)
	flippedCRC[len(flippedCRC)-1] ^= 0x01
	seeds := map[string][]byte{
		"valid":            valid,
		"empty":            {},
		"magic-only":       []byte("PFSNAP"),
		"truncated-header": valid[:15],
		"truncated-body":   valid[:len(valid)/2],
		"future-version":   futureVersion,
		"flipped-payload":  flippedPayload,
		"flipped-crc":      flippedCRC,
	}
	for name, data := range strictInputs(t) {
		seeds[name] = data
	}
	for name, data := range treeStrictInputs(t) {
		seeds[name] = data
	}
	withPrices, strictPrices := pricesInputs(t)
	seeds["valid-minoragg"] = withPrices
	for name, data := range strictPrices {
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
// must re-encode deterministically (decode∘encode is the identity on
// the valid subset).
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
