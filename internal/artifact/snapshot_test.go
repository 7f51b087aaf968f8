package artifact

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// TestImportSkipsOccupiedSlots: a resident substrate wins over the
// snapshot — importing must not yank a built substrate out from under
// live queries, and the skipped import must not double-count build cost.
func TestImportSkipsOccupiedSlots(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(5, 5), planar.NewRand(3), 1, 9, 1, 16)

	// Donor bundle: tree + undirected dual labeling.
	donor := New(g)
	led := ledger.New()
	if _, err := donor.DualLabels(Undirected, 0, led); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := donor.Export(&snap); err != nil {
		t.Fatal(err)
	}

	// Receiver already built its own tree; the import must keep it and
	// seed only the labeling.
	recv := New(g)
	ownTree, err := recv.Tree(0, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	before := recv.Stats()
	if err := recv.ImportInto(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := recv.Stats()
	if len(after.Substrates) != len(before.Substrates)+1 {
		t.Fatalf("import added %d substrates, want 1", len(after.Substrates)-len(before.Substrates))
	}
	keptTree, err := recv.Tree(0, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if keptTree != ownTree {
		t.Fatal("import replaced a resident substrate")
	}
	// The labeling arrived warm: fetching it charges nothing new.
	qled := ledger.New()
	if _, err := recv.DualLabels(Undirected, 0, qled); err != nil {
		t.Fatal(err)
	}
	if qled.Total() != 0 {
		t.Fatalf("restored labeling charged %d rounds on fetch", qled.Total())
	}
	// BuildLedger == sum of slot costs still holds.
	var slotSum int64
	for _, s := range after.Substrates {
		slotSum += s.BuildRounds
	}
	if got := recv.BuildLedger().Total(); got != slotSum {
		t.Fatalf("BuildLedger %d != slot sum %d", got, slotSum)
	}
}

// TestExportImportEmpty: an unbuilt bundle exports a valid empty
// snapshot, and importing it is a no-op.
func TestExportImportEmpty(t *testing.T) {
	g := planar.Grid(4, 4)
	p := New(g)
	var snap bytes.Buffer
	if err := p.Export(&snap); err != nil {
		t.Fatal(err)
	}
	q := New(g)
	if err := q.ImportInto(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if n := len(q.Stats().Substrates); n != 0 {
		t.Fatalf("empty import produced %d substrates", n)
	}
}

// TestExportImportPrices: the minor-aggregation prices travel in the
// snapshot. The restored bundle hands out the same prices at no build
// charge, reports the original construction cost, and re-exports the bytes
// it was restored from.
func TestExportImportPrices(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(5, 6), planar.NewRand(3), 1, 9, 1, 16)
	donor := New(g)
	built := ledger.New()
	h, err := donor.MinorAgg(built)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.PrimalLabels(Undirected, 0, ledger.New()); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := donor.Export(&snap); err != nil {
		t.Fatal(err)
	}

	recv := New(g)
	if err := recv.ImportInto(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	led := ledger.New()
	h2, err := recv.MinorAgg(led)
	if err != nil {
		t.Fatal(err)
	}
	if led.Total() != 0 {
		t.Fatalf("restored prices charged %d rounds on fetch", led.Total())
	}
	if h2.Prices != h.Prices {
		t.Fatalf("restored prices %+v, built %+v", h2.Prices, h.Prices)
	}
	if !reflect.DeepEqual(recv.Stats(), donor.Stats()) {
		t.Fatalf("restored stats %+v, want %+v", recv.Stats(), donor.Stats())
	}
	if got, want := recv.BuildLedger().Total(), donor.BuildLedger().Total(); got != want || built.Total() == 0 {
		t.Fatalf("restored build ledger %d, donor %d (prices cost %d)", got, want, built.Total())
	}
	var again bytes.Buffer
	if err := recv.Export(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Fatal("re-export of the restored bundle differs from the snapshot it came from")
	}
}

// checkTotals holds the running totals to Stats' sums.
func checkTotals(t *testing.T, when string, p *Prepared) {
	t.Helper()
	st := p.Stats()
	bytes, subs, rounds := p.Totals()
	if bytes != st.Bytes || subs != len(st.Substrates) || rounds != st.BuildRounds {
		t.Fatalf("%s: Totals = (%d B, %d substrates, %d rounds), Stats sums (%d B, %d, %d)",
			when, bytes, subs, rounds, st.Bytes, len(st.Substrates), st.BuildRounds)
	}
}

// TestTotalsMatchStats: the running totals the store re-accounts from
// equal Stats' sums after every build, after an import that seeds some
// slots and skips an occupied one, and after a canceled build that
// publishes nothing.
func TestTotalsMatchStats(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(5, 6), planar.NewRand(5), 1, 9, 1, 16)
	donor := New(g)
	checkTotals(t, "empty", donor)
	steps := []struct {
		name string
		run  func(*ledger.Ledger) error
	}{
		{"tree", func(l *ledger.Ledger) error { _, err := donor.Tree(0, l); return err }},
		{"dual", func(l *ledger.Ledger) error { _, err := donor.DualLabels(Undirected, 0, l); return err }},
		{"primal on a second tree", func(l *ledger.Ledger) error { _, err := donor.PrimalLabels(Directed, 6, l); return err }},
		{"prices", func(l *ledger.Ledger) error { _, err := donor.MinorAgg(l); return err }},
		{"warm repeat", func(l *ledger.Ledger) error { _, err := donor.DualLabels(Undirected, 0, l); return err }},
	}
	for _, s := range steps {
		if err := s.run(ledger.New()); err != nil {
			t.Fatal(err)
		}
		checkTotals(t, "after "+s.name, donor)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := donor.WithContext(canceled).DualLabels(FreeReversal, 0, ledger.New()); err == nil {
		t.Fatal("a canceled build published")
	}
	checkTotals(t, "after a canceled build", donor)

	var snap bytes.Buffer
	if err := donor.Export(&snap); err != nil {
		t.Fatal(err)
	}
	recv := New(g)
	if _, err := recv.Tree(0, ledger.New()); err != nil {
		t.Fatal(err)
	}
	if err := recv.ImportInto(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	checkTotals(t, "after ImportInto", recv)
	if b, n, r := recv.Totals(); b != donor.Stats().Bytes || n != len(donor.Stats().Substrates) || r != donor.Stats().BuildRounds {
		t.Fatalf("restored totals (%d, %d, %d), donor %+v", b, n, r, donor.Stats())
	}
}
