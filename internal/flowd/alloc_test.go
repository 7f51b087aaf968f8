package flowd

import (
	"context"
	"runtime/debug"
	"testing"

	"planarflow"
	"planarflow/internal/wire"
)

// TestServeAllocCeilings pins what the serving plane allocates per warm
// query on a resident graph: one OpQueryB dist frame through ServeFrame
// (binary decode, span, store pin and release, decode engine, response
// encode, tracer ring) and one store.Do hit under it. They read 12 and 5;
// they read 28 and 14 while every finished span rendered its /tracez view
// and every release listed and sorted the bundle's substrates. The race
// detector allocates on its own, so the counts mean nothing under it.
func TestServeAllocCeilings(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not comparable under -race")
			}
		}
	}
	s, _, singles := benchServer(t)
	dist := singles[0] // the mix's first query: dist
	g := s.st.Graph("g")
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"Server.ServeFrame(OpQueryB dist)", 15, func() error {
			if status, body := s.ServeFrame(ctx, wire.OpQueryB, 1, dist); status != wire.StatusOK {
				t.Fatalf("status %s: %s", status, body)
			}
			return nil
		}},
		{"store.Do hit", 6, func() error {
			_, _, err := s.st.Do(ctx, "g", planarflow.DistQuery(0, g.N()-1))
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				t.Error(err)
			}
		})
		t.Logf("%s: %.1f allocs/run (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s: %.1f allocs/run, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
