package flowd

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"planarflow/internal/codec"
	"planarflow/internal/store"
)

// wirePayloadSeeds are the binary payload shapes FuzzDecodeWirePayload
// starts from: one valid payload per request and response shape, then one
// per rejection class.
func wirePayloadSeeds() map[string][]byte {
	qreq := appendWireQueryRequest(nil, &QueryRequest{Graph: "g", Op: "stflow", U: 0, V: 5, Eps: 0.25})
	queries := func(n int) []BatchQuery {
		qs := make([]BatchQuery, n)
		for i := range qs {
			qs[i] = BatchQuery{Op: "dist", U: i, V: i + 1}
		}
		return qs
	}
	overCap := codec.AppendString(nil, strings.Repeat("x", maxWireString+1))
	// A response whose Dist count claims more 8-byte entries than follow.
	pastInput := codec.AppendString(codec.AppendString(nil, "g"), "dualsssp")
	pastInput = codec.AppendU64(pastInput, 7)
	pastInput = codec.AppendU64(codec.AppendU32(pastInput, 1000), 3)
	resp := QueryResponse{
		Graph: "g", Op: "dualsssp", Value: 7, Dist: []int64{0, 3, 9}, CutEdges: []int{},
		Hit: true, Rounds: Rounds{Total: 44, Build: 4, Query: 40}, WallMS: 0.01,
	}
	qresp := appendWireQueryResponse(nil, &resp)
	// The one byte where Hit=false differs from qresp is Hit's; a 2 there
	// is neither bool.
	resp.Hit = false
	badBool := appendWireQueryResponse(nil, &resp)
	for i := range badBool {
		if badBool[i] != qresp[i] {
			badBool[i] = 2
		}
	}
	return map[string][]byte{
		"valid-query-request":  qreq,
		"valid-query-response": qresp,
		"valid-batch-request": appendWireBatchRequest(nil, &BatchRequest{Graph: "g", Workers: 2, Queries: []BatchQuery{
			{Op: "dist", U: 0, V: 5}, {Op: "girth"}, {Op: "stcut", U: 1, V: 4, Eps: 0.5},
		}}),
		"valid-batch-response": appendWireBatchResponse(nil, &BatchResponse{Graph: "g", Hit: true, WallMS: 0.5, Results: []BatchResult{
			{Op: "dist", Value: 3}, {Op: "minstcut", Value: 6, CutEdges: []int{1, 4}, Iterations: 2}, {Op: "dist", Error: "vertex out of range"},
		}}),
		"truncated":              qreq[:len(qreq)-1],
		"bool-byte-2":            badBool,
		"string-over-cap":        overCap,
		"slice-count-past-input": pastInput,
		"trailing-bytes":         append(append([]byte(nil), qreq...), 0),
		"batch-of-0":             appendWireBatchRequest(nil, &BatchRequest{Graph: "g"}),
		"batch-of-257":           appendWireBatchRequest(nil, &BatchRequest{Graph: "g", Queries: queries(MaxBatchQueries + 1)}),
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed FuzzDecodeWirePayload seed corpus")

// TestWriteWirePayloadSeedCorpus holds the committed seeds under
// testdata/fuzz/FuzzDecodeWirePayload to wirePayloadSeeds file for file,
// so a codec change that leaves them stale fails here rather than
// quietly changing what each seed exercises; with -update-corpus it
// rewrites them instead.
func TestWriteWirePayloadSeedCorpus(t *testing.T) {
	seeds := wirePayloadSeeds()
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeWirePayload")
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range seeds {
		path, body := filepath.Join(dir, name), fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if *updateCorpus {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("%s is stale (err %v): rerun with -update-corpus", path, err)
		}
	}
}

// TestWirePayloadSeedsMeanTheirNames: each valid seed decodes with the
// decoder of its shape, and each rejection seed is refused by the decoder
// of the shape it was cut from.
func TestWirePayloadSeedsMeanTheirNames(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"query-request":  func(b []byte) error { _, err := decodeWireQueryRequest(b); return err },
		"query-response": func(b []byte) error { _, err := decodeWireQueryResponse(b); return err },
		"batch-request":  func(b []byte) error { _, err := decodeWireBatchRequest(b); return err },
		"batch-response": func(b []byte) error { _, err := decodeWireBatchResponse(b); return err },
	}
	shapes := map[string]struct {
		shape string
		valid bool
	}{
		"valid-query-request":    {"query-request", true},
		"valid-query-response":   {"query-response", true},
		"valid-batch-request":    {"batch-request", true},
		"valid-batch-response":   {"batch-response", true},
		"truncated":              {"query-request", false},
		"bool-byte-2":            {"query-response", false},
		"string-over-cap":        {"query-request", false},
		"slice-count-past-input": {"query-response", false},
		"trailing-bytes":         {"query-request", false},
		"batch-of-0":             {"batch-request", false},
		"batch-of-257":           {"batch-request", false},
	}
	for name, data := range wirePayloadSeeds() {
		want, ok := shapes[name]
		if !ok {
			t.Errorf("seed %s has no row; add one", name)
			continue
		}
		if err := decoders[want.shape](data); (err == nil) != want.valid {
			t.Errorf("seed %s as a %s: err %v, want valid=%v", name, want.shape, err, want.valid)
		}
	}
}

// FuzzDecodeWirePayload holds the four binary payload decoders to their
// contract on every input: no panic, an error always with a nil value, and
// an accepted payload re-encodes to exactly its own bytes (the codec is
// canonical). An accepted request also passes store.CheckID and
// planarflow.Query.Validate, eps in [0, 1) included.
func FuzzDecodeWirePayload(f *testing.F) {
	for _, data := range wirePayloadSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEps := func(eps float64) {
			if !(eps >= 0 && eps < 1) {
				t.Fatalf("accepted eps %v", eps)
			}
		}
		if r, err := decodeWireQueryRequest(data); err != nil {
			if r != nil {
				t.Fatal("query request: error with non-nil value")
			}
		} else {
			if !bytes.Equal(appendWireQueryRequest(nil, r), data) {
				t.Fatalf("query request %+v does not re-encode to its bytes", r)
			}
			if store.CheckID(r.Graph) != nil || r.Query().Validate() != nil {
				t.Fatalf("accepted invalid query request %+v", r)
			}
			checkEps(r.Eps)
		}
		if r, err := decodeWireQueryResponse(data); err != nil {
			if r != nil {
				t.Fatal("query response: error with non-nil value")
			}
		} else if !bytes.Equal(appendWireQueryResponse(nil, r), data) {
			t.Fatalf("query response %+v does not re-encode to its bytes", r)
		}
		if r, err := decodeWireBatchRequest(data); err != nil {
			if r != nil {
				t.Fatal("batch request: error with non-nil value")
			}
		} else {
			if !bytes.Equal(appendWireBatchRequest(nil, r), data) {
				t.Fatalf("batch request %+v does not re-encode to its bytes", r)
			}
			if store.CheckID(r.Graph) != nil || len(r.Queries) == 0 || len(r.Queries) > MaxBatchQueries ||
				r.Workers < 0 || r.Workers > MaxBatchWorkers {
				t.Fatalf("accepted invalid batch request %+v", r)
			}
			for _, q := range r.Queries {
				if q.Query().Validate() != nil {
					t.Fatalf("accepted invalid batch entry %+v", q)
				}
				checkEps(q.Eps)
			}
		}
		if r, err := decodeWireBatchResponse(data); err != nil {
			if r != nil {
				t.Fatal("batch response: error with non-nil value")
			}
		} else if !bytes.Equal(appendWireBatchResponse(nil, r), data) {
			t.Fatalf("batch response %+v does not re-encode to its bytes", r)
		}
	})
}

// TestWireCodecRejectsNaNEps: the binary codec carries eps as raw float64
// bits, so a NaN reaches the decoder, which must refuse it like any other
// eps outside [0, 1) — in a single query and in a batch entry.
func TestWireCodecRejectsNaNEps(t *testing.T) {
	for _, eps := range []float64{math.NaN(), -0.5, 1, math.Inf(1)} {
		q := appendWireQueryRequest(nil, &QueryRequest{Graph: "g", Op: "stflow", U: 0, V: 5, Eps: eps})
		if r, err := decodeWireQueryRequest(q); err == nil {
			t.Errorf("eps=%v: query request accepted: %+v", eps, r)
		}
		b := appendWireBatchRequest(nil, &BatchRequest{Graph: "g", Queries: []BatchQuery{{Op: "stcut", U: 0, V: 5, Eps: eps}}})
		if r, err := decodeWireBatchRequest(b); err == nil {
			t.Errorf("eps=%v: batch request accepted: %+v", eps, r)
		}
	}
}
