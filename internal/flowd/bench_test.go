package flowd

// Layer micro-benchmarks of the daemon's execution plane on a warm
// resident graph (run with -benchmem). bench/ times the transports and
// the store; these time what sits between them: ServeFrame with one
// 16-query batch frame against the same 16 queries as singleton frames
// (what batching amortises: span, store acquire and release, response
// frame), and the binary payload codec on its own.

import (
	"context"
	"io"
	"log/slog"
	"testing"

	"planarflow/internal/obs"
	"planarflow/internal/store"
	"planarflow/internal/wire"
)

// benchQueries is the 16-query decode-heavy mix both ServeFrame
// benchmarks serve: 10 dist, 3 dualdist, 3 dualsssp.
func benchQueries(n, faces int) []BatchQuery {
	qs := make([]BatchQuery, 0, 16)
	for i := 0; i < 10; i++ {
		qs = append(qs, BatchQuery{Op: "dist", U: (7 * i) % n, V: n - 1 - (3*i)%n})
	}
	for i := 0; i < 3; i++ {
		qs = append(qs, BatchQuery{Op: "dualdist", U: i % faces, V: faces - 1 - i})
	}
	for i := 0; i < 3; i++ {
		qs = append(qs, BatchQuery{Op: "dualsssp", Source: (5 * i) % faces})
	}
	return qs
}

// benchServer returns a server over one registered graph with the mix's
// substrates built and its decode caches filled, plus the batch payload
// and the 16 singleton payloads.
func benchServer(b testing.TB) (s *Server, batch []byte, singles [][]byte) {
	b.Helper()
	st := store.New(store.Config{})
	g, err := st.RegisterSpec("g", store.GraphSpec{Kind: "grid", Rows: 12, Cols: 12, Seed: 7, WLo: 1, WHi: 9, CLo: 1, CHi: 16})
	if err != nil {
		b.Fatal(err)
	}
	s = NewServerWith(st, ServerOptions{
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Registry: obs.NewRegistry(),
	})
	qs := benchQueries(g.N(), g.NumFaces())
	batch = appendWireBatchRequest(nil, &BatchRequest{Graph: "g", Queries: qs})
	for _, q := range qs {
		singles = append(singles, appendWireQueryRequest(nil, &QueryRequest{
			Graph: "g", Op: q.Op, U: q.U, V: q.V, Source: q.Source,
		}))
	}
	if status, body := s.ServeFrame(context.Background(), wire.OpBatchB, 0, batch); status != wire.StatusOK {
		b.Fatalf("warm-up batch: status %s: %s", status, body)
	}
	return s, batch, singles
}

func BenchmarkServeFrameBatch16(b *testing.B) {
	s, batch, _ := benchServer(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _ := s.ServeFrame(ctx, wire.OpBatchB, uint64(i), batch); status != wire.StatusOK {
			b.Fatalf("status %s", status)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/16, "ns/query")
}

func BenchmarkServeFrameSingletons16(b *testing.B) {
	s, _, singles := benchServer(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, payload := range singles {
			if status, _ := s.ServeFrame(ctx, wire.OpQueryB, uint64(i), payload); status != wire.StatusOK {
				b.Fatalf("status %s", status)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/16, "ns/query")
}

// BenchmarkWireCodec times one encode + decode of each binary payload: a
// dist request, a dualsssp response carrying a 122-face vector, and the
// 16-entry batch pair.
func BenchmarkWireCodec(b *testing.B) {
	dist := make([]int64, 122)
	for i := range dist {
		dist[i] = int64(i * 3)
	}
	qreq := &QueryRequest{Graph: "g", Op: "dist", U: 3, V: 140}
	qresp := &QueryResponse{Graph: "g", Op: "dualsssp", Dist: dist, Hit: true,
		Rounds: Rounds{Total: 44, Query: 44}, WallMS: 0.01}
	breq := &BatchRequest{Graph: "g", Queries: benchQueries(144, 122)}
	bresp := &BatchResponse{Graph: "g", Hit: true, Results: make([]BatchResult, 16)}
	for i := range bresp.Results {
		bresp.Results[i] = BatchResult{Op: "dist", Value: int64(i)}
	}
	bresp.Results[15] = BatchResult{Op: "dualsssp", Dist: dist, Rounds: qresp.Rounds}

	run := func(name string, roundTrip func(buf []byte) ([]byte, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = roundTrip(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
	run("query_request", func(buf []byte) ([]byte, error) {
		buf = appendWireQueryRequest(buf, qreq)
		_, err := decodeWireQueryRequest(buf)
		return buf, err
	})
	run("query_response", func(buf []byte) ([]byte, error) {
		buf = appendWireQueryResponse(buf, qresp)
		_, err := decodeWireQueryResponse(buf)
		return buf, err
	})
	run("batch_request", func(buf []byte) ([]byte, error) {
		buf = appendWireBatchRequest(buf, breq)
		_, err := decodeWireBatchRequest(buf)
		return buf, err
	})
	run("batch_response", func(buf []byte) ([]byte, error) {
		buf = appendWireBatchResponse(buf, bresp)
		_, err := decodeWireBatchResponse(buf)
		return buf, err
	})
}
