package artifact

// Persistence: Export writes the built substrates of a bundle through
// the snapshot codec; ImportInto seeds an (typically fresh) bundle's
// slots from a snapshot so queries find every restored substrate warm
// and never rebuild it. Together they turn the artifact layer's
// "build once, serve many" into "build once, serve many, survive the
// process".

import (
	"fmt"
	"io"
	"sort"

	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/minoragg"
	"planarflow/internal/snapshot"
)

// restoredPhase is the ledger phase restored substrates carry: their
// original construction cost travels in the snapshot, so serving stats
// (Stats, BuildLedger, the store's build-rounds accounting) keep
// reporting what the substrate cost to build, not what it cost to load.
const restoredPhase = "snapshot/restored-build"

// Export writes a snapshot of every substrate built so far (in-flight
// builds are excluded until they publish) to w. Sections are emitted in
// deterministic order — trees by leaf limit, then labelings by (view,
// length kind, leaf limit), dual before primal, then the minor-aggregation
// prices — so equal states encode to equal bytes. A bundle with nothing
// built exports a valid, empty snapshot.
func (p *Prepared) Export(w io.Writer) error {
	var c snapshot.Contents
	p.st.mu.Lock()
	for ll, s := range p.st.trees {
		if s.ready {
			c.Trees = append(c.Trees, snapshot.TreeEntry{
				LeafLimit: ll, BuildRounds: s.led.Total(), Tree: s.val,
			})
		}
	}
	for k, s := range p.st.labels {
		if s.ready {
			c.Labels = append(c.Labels, snapshot.LabelEntry{
				Kind: byte(k.kind), LeafLimit: k.leafLimit,
				BuildRounds: s.led.Total(), Labeling: s.val,
			})
		}
	}
	if s := &p.st.prices; s.ready {
		c.Prices = &snapshot.PricesEntry{PAUnit: s.val.PAUnit(), BuildRounds: s.led.Total()}
	}
	p.st.mu.Unlock()
	sort.Slice(c.Trees, func(i, j int) bool { return c.Trees[i].LeafLimit < c.Trees[j].LeafLimit })
	sort.Slice(c.Labels, func(i, j int) bool {
		a, b := c.Labels[i], c.Labels[j]
		if av, bv := a.Labeling.View(), b.Labeling.View(); av != bv {
			return av < bv
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.LeafLimit < b.LeafLimit
	})
	return snapshot.Encode(w, p.st.g, &c)
}

// ImportInto decodes a snapshot against the bundle's graph — its trees,
// and the labelings it names computed again over them from Lengths — and
// seeds the substrate cache: every restored substrate publishes as a ready
// slot, so Do/Warm and the named queries never rebuild it. Slots that
// already hold a value (or an in-flight build) are left alone — the resident
// substrate wins, since it is at least as fresh as the snapshot. Errors
// wrap the snapshot package's typed sentinels (snapshot.ErrFingerprint
// when the snapshot belongs to a different graph, snapshot.ErrChecksum /
// ErrTruncated / ErrCorrupt for damaged input), or are the bound context's
// error when it ends while the labelings are computed; a failed import
// changes nothing.
func (p *Prepared) ImportInto(r io.Reader) error {
	c, err := snapshot.DecodeContext(p.ctx, r, p.st.g, func(kind byte) ([]int64, error) {
		if kind > byte(FreeReversal) {
			return nil, fmt.Errorf("%w: unknown length kind %d", snapshot.ErrCorrupt, kind)
		}
		return Lengths(p.st.g, LengthKind(kind)), nil
	})
	if err != nil {
		return err
	}
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	for _, t := range c.Trees {
		s := p.st.trees[t.LeafLimit]
		if s == nil {
			s = &slot[*bdd.BDD]{}
			p.st.trees[t.LeafLimit] = s
		}
		seedSlot(p, s, t.Tree, t.BuildRounds, t.Tree.FootprintBytes())
	}
	for _, la := range c.Labels {
		key := labelKey{la.Labeling.View(), LengthKind(la.Kind), la.LeafLimit}
		s := p.st.labels[key]
		if s == nil {
			s = &slot[*label.Labeling]{}
			p.st.labels[key] = s
		}
		seedSlot(p, s, la.Labeling, la.BuildRounds, la.Labeling.FootprintBytes())
	}
	if c.Prices != nil {
		pr := minoragg.RestorePrices(p.st.g, c.Prices.PAUnit)
		seedSlot(p, &p.st.prices, pr, c.Prices.BuildRounds, pr.FootprintBytes())
	}
	return nil
}

// seedSlot publishes a restored value into an empty slot (caller holds
// the state lock). Occupied or in-flight slots are skipped: the import
// must not yank a substrate out from under live queries.
func seedSlot[T any](p *Prepared, s *slot[T], val T, buildRounds int64, bytes int64) {
	if s.ready || s.inflight != nil {
		return
	}
	led := ledger.New()
	led.Charge(restoredPhase, buildRounds)
	s.val, s.led, s.bytes, s.ready = val, led, bytes, true
	p.st.count(bytes, led, true)
	// Keep the BuildLedger == sum-of-slot-costs invariant: the restored
	// substrate's original construction cost counts as build cost here too.
	p.st.build.Merge(led)
}
