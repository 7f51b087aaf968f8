package flowd

import (
	"encoding/json"
	"slices"
	"testing"
	"unicode/utf8"
)

// FuzzDecodeQuery holds DecodeQuery to its contract: no input panics, and
// any accepted request is well-formed (known op, non-negative ids, eps in
// range, round-trippable through the wire encoding). Seeds cover every op
// plus the rejection classes; the committed corpus under
// testdata/fuzz/FuzzDecodeQuery extends them.
func FuzzDecodeQuery(f *testing.F) {
	for _, op := range Ops {
		f.Add([]byte(`{"graph":"g","op":"` + op + `","u":0,"v":5,"source":2,"eps":0.5}`))
	}
	f.Add([]byte(`{"graph":"g","op":"dist"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"graph":"g","op":"dist","u":-1}`))
	f.Add([]byte(`{"graph":"g","op":"dist","eps":1.5}`))
	f.Add([]byte(`{"graph":"g","op":"dist","bogus":true}`))
	f.Add([]byte(`{"graph":"g","op":"dist"} trailing`))
	f.Add([]byte(`{"graph":"g","op":"dist","u":9223372036854775807}`))
	f.Add([]byte(`{"graph":"x","op":"girth"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeQuery(data)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if err := req.Query().Validate(); err != nil {
			t.Fatalf("accepted request maps to invalid query: %v", err)
		}
		if req.Graph == "" {
			t.Fatal("accepted request with empty graph id")
		}
		if !slices.Contains(Ops, req.Op) {
			t.Fatalf("accepted unknown op %q", req.Op)
		}
		if req.U < 0 || req.V < 0 || req.Source < 0 {
			t.Fatalf("accepted negative ids: %+v", req)
		}
		if !(req.Eps >= 0 && req.Eps < 1) {
			t.Fatalf("accepted eps %v", req.Eps)
		}
		// Accepted requests survive the wire round trip losslessly (modulo
		// JSON's string sanitization of invalid UTF-8, which re-encoding
		// would not preserve byte-for-byte).
		if !utf8.ValidString(req.Graph) {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		req2, err := DecodeQuery(enc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", enc, err)
		}
		if *req != *req2 {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, req2)
		}
	})
}

// FuzzDecodeBatch holds DecodeBatch to the same contract: no input
// panics, and any accepted batch is well-formed — non-empty and under the
// cap, every entry a known op with non-negative ids and in-range eps,
// workers bounded, and the whole request round-trippable through the wire
// encoding. Seeds cover the acceptance and each rejection class; the
// committed corpus under testdata/fuzz/FuzzDecodeBatch extends them.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"graph":"g","queries":[{"op":"dist","u":0,"v":5},{"op":"girth"},{"op":"maxflow","u":1,"v":2}]}`))
	f.Add([]byte(`{"graph":"g","queries":[{"op":"stflow","u":0,"v":5,"eps":0.25}],"workers":4}`))
	f.Add([]byte(`{"graph":"g","queries":[{"op":"dualsssp","source":3}]}`))
	f.Add([]byte(`{"graph":"g","queries":[]}`))
	f.Add([]byte(`{"graph":"","queries":[{"op":"girth"}]}`))
	f.Add([]byte(`{"graph":"g","queries":[{"op":"warp"}]}`))
	f.Add([]byte(`{"graph":"g","queries":[{"op":"dist","u":-1}]}`))
	f.Add([]byte(`{"graph":"g","queries":[{"op":"stcut","eps":1.5}]}`))
	f.Add([]byte(`{"graph":"g","queries":[{"op":"girth"}],"workers":-1}`))
	f.Add([]byte(`{"graph":"g","queries":[{"op":"girth","bogus":true}]}`))
	f.Add([]byte(`{"graph":"g","queries":[{"op":"girth"}]} trailing`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeBatch(data)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if req.Graph == "" {
			t.Fatal("accepted batch with empty graph id")
		}
		if len(req.Queries) == 0 || len(req.Queries) > MaxBatchQueries {
			t.Fatalf("accepted batch of %d queries", len(req.Queries))
		}
		if req.Workers < 0 || req.Workers > MaxBatchWorkers {
			t.Fatalf("accepted workers=%d", req.Workers)
		}
		for i, q := range req.Queries {
			if !slices.Contains(Ops, q.Op) {
				t.Fatalf("accepted unknown op %q", q.Op)
			}
			if q.U < 0 || q.V < 0 || q.Source < 0 {
				t.Fatalf("accepted negative ids: %+v", q)
			}
			if !(q.Eps >= 0 && q.Eps < 1) {
				t.Fatalf("accepted eps %v", q.Eps)
			}
			if err := q.Query().Validate(); err != nil {
				t.Fatalf("accepted entry %d maps to invalid query: %v", i, err)
			}
		}
		if !utf8.ValidString(req.Graph) {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		req2, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", enc, err)
		}
		if req.Graph != req2.Graph || req.Workers != req2.Workers || len(req.Queries) != len(req2.Queries) {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, req2)
		}
		for i := range req.Queries {
			if req.Queries[i] != req2.Queries[i] {
				t.Fatalf("round trip changed query %d: %+v -> %+v", i, req.Queries[i], req2.Queries[i])
			}
		}
	})
}
