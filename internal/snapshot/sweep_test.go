package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestDecodeFailureClasses pins which sentinel each way of damaging a
// committed fixture fails with:
//
//   - every proper prefix of the file is ErrTruncated;
//   - every section payload cut short, with its length and CRC refreshed so
//     only the section decoder can object, is ErrCorrupt, and nothing
//     panics — except a version-1 labeling section's, whose label vectors
//     after the leading fields are read past, not decoded.
//
// Both sweeps take every cut of a file up to 32 KB and every 29th of a
// larger one (tri40's version 1), which keeps the test to seconds.
func TestDecodeFailureClasses(t *testing.T) {
	for _, fx := range goldenFixtures {
		g := fx.graph(t)
		data, err := os.ReadFile(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		stride := 1
		if len(data) > 32<<10 {
			stride = 29
		}
		lengths := lengthsFor(g)
		for cut := 0; cut < len(data); cut += stride {
			if _, err := Decode(bytes.NewReader(data[:cut]), g, lengths); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: prefix of %d/%d bytes: got %v, want ErrTruncated", fx.path, cut, len(data), err)
			}
		}
		hdr, types, payloads := splitSnapshot(t, data)
		cuts := 0
		for sec, p := range payloads {
			if data[6] == 1 && (types[sec] == secDual || types[sec] == secPrimal) {
				continue
			}
			// The cut section beside the trees it decodes over: the other
			// labelings would only add decode work ahead of the cut.
			var ts []byte
			var ps [][]byte
			at := 0
			for i, q := range payloads {
				if i == sec {
					at = len(ps)
				}
				if i == sec || types[i] == secTree {
					ts, ps = append(ts, types[i]), append(ps, q)
				}
			}
			h := binary.AppendUvarint(append([]byte(nil), hdr[:6+1+8]...), uint64(len(ps)))
			for n := 0; n < len(p); n += stride {
				ps[at] = p[:n]
				_, err := Decode(bytes.NewReader(joinSnapshot(h, ts, ps)), g, lengths)
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: section %d (type %d) cut to %d/%d bytes: got %v, want ErrCorrupt", fx.path, sec, types[sec], n, len(p), err)
				}
				cuts++
			}
		}
		t.Logf("%s: %d prefixes ErrTruncated, %d payload cuts ErrCorrupt", fx.path, (len(data)+stride-1)/stride, cuts)
	}
}

// TestFirstDefectWins: a section with two defects reports the earlier one
// — the tree decoder stops at a bag's impossible parent before reading its
// impossible child count, and the prices decoder at a unit below one
// before its trailing bytes.
func TestFirstDefectWins(t *testing.T) {
	g, base := fuzzSetup(t)
	hdr, types, payloads := splitSnapshot(t, base)
	sec := bytes.IndexByte(types, secTree)
	// leaf limit, build rounds, depth, one bag: level 0, parent 5 (bag 0
	// can have none), then 3 children.
	tree := binary.AppendUvarint(nil, 16)
	tree = binary.AppendVarint(tree, 1)
	for _, x := range []uint64{1, 1, 0, 5, 3} {
		tree = binary.AppendUvarint(tree, x)
	}
	ps := append([][]byte(nil), payloads...)
	ps[sec] = tree
	_, err := Decode(bytes.NewReader(joinSnapshot(hdr, types, ps)), g, lengthsFor(g))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bag 0 parent 4") {
		t.Errorf("tree with two defects: got %v, want the parent one", err)
	}

	_, strict := pricesInputs(t)
	withBoth := strict["strict-minoragg-unit-below-one"]
	h2, t2, p2 := splitSnapshot(t, withBoth)
	p2[len(p2)-1] = append(append([]byte(nil), p2[len(p2)-1]...), 0)
	_, err = Decode(bytes.NewReader(joinSnapshot(h2, t2, p2)), g, lengthsFor(g))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unit 0") {
		t.Errorf("prices section with two defects: got %v, want the unit one", err)
	}
}
