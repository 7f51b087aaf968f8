package snapshot

// Distance-labeling sections (types 2 and 3: one body, the type byte names
// the labeling's view). A labeling is a function of the tree it decodes over
// and of its per-dart lengths, which derive from the fingerprint-checked
// graph and the length kind (the caller supplies them through LengthsFunc).
// So version 2 stores only what names it and what it cost: length kind,
// leaf limit, build rounds. Decode computes the labeling again over the
// section's tree, under a discarded ledger: the labels come out equal to
// the ones encoded, since shortest distances are unique and the rows are
// exact. A version-1 body opens with the same three fields; the rest of it
// — the NegCycle flag, the label vectors, the DDGs — is read past, not
// decoded (the section's CRC still covers it).
//
// What a relabel costs is not paid in bytes, so Decode prices every
// labeling section from its tree's plan (label.PassWords) and refuses a
// snapshot whose labelings come to more than relabelBudget before any pass
// runs.

import (
	"context"

	"planarflow/internal/bdd"
	"planarflow/internal/codec"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// LabelEntry is one labeling substrate: the labeling (which knows its
// view), its artifact key (length kind byte + leaf limit), and its original
// build cost.
type LabelEntry struct {
	Kind        byte
	LeafLimit   int
	BuildRounds int64
	Labeling    *label.Labeling
}

// relabelDefaultTrees is how many labelings over the graph's default tree
// one snapshot may ask Decode to compute. Such a labeling holds about
// m·L₀ words, L₀ the default leaf limit (Θ(D log n), the length of a leaf's
// rows and a bound on a separator's): 0.4–1.5 × m·L₀ on grids, snakes and
// triangulations of 100–3,600 vertices, up to 2.7× at leaf limit 4. So 32
// covers three default trees with all six (view, kind) labelings, a tree
// at leaf limit 4, or one tree whose single leaf is the whole graph up to
// Triangulation(400); a snapshot asking more is refused, and the store
// rebuilds instead.
const relabelDefaultTrees = 32

// relabelBudget is the words of labelings Decode computes at most for one
// snapshot of g, whatever its size: relabelling is not paid in bytes.
func relabelBudget(g *planar.Graph) int64 {
	return relabelDefaultTrees * int64(max(g.M(), 1)) * int64(bdd.DefaultLeafLimit(g))
}

// labelSection is a labeling section read and priced, not yet computed.
type labelSection struct {
	LabelEntry // Labeling nil until relabel
	view       label.View
	tree       *bdd.BDD
	words      int64
}

func encodeLabeling(la *LabelEntry) []byte {
	e := codec.AppendUvarint([]byte{la.Kind}, uint64(la.LeafLimit))
	return codec.AppendVarint(e, la.BuildRounds)
}

// decodeLabeling reads a labeling section of the given format version,
// finds its tree among c's and prices its pass over it; prev are the
// sections read before it.
func decodeLabeling(d *codec.Reader, version byte, v label.View, c *Contents, prev []labelSection) (*labelSection, error) {
	ls := &labelSection{view: v}
	ls.Kind, ls.LeafLimit, ls.BuildRounds = d.U8(), int(d.Uvarint()), d.Varint()
	err := d.Err()
	if version > 1 {
		err = d.Done()
	}
	if err != nil {
		return nil, err
	}
	for i := range c.Trees {
		if c.Trees[i].LeafLimit == ls.LeafLimit {
			ls.tree = c.Trees[i].Tree
		}
	}
	if ls.tree == nil {
		return nil, d.Failf("labeling references missing tree (leaf limit %d)", ls.LeafLimit)
	}
	for _, p := range prev {
		if p.view == v && p.Kind == ls.Kind && p.LeafLimit == ls.LeafLimit {
			return nil, d.Failf("duplicate %s-labeling section", v)
		}
	}
	if ls.words, err = label.PassWords(v, ls.tree); err != nil {
		return nil, d.Failf("%v", err)
	}
	ls.words += int64(ls.tree.G.NumDarts()) // the lengths it keeps
	return ls, nil
}

// relabel computes the section's labeling over its tree under a discarded
// ledger; a canceled ctx stops it between bags.
func (ls *labelSection) relabel(ctx context.Context, lengths LengthsFunc) (*LabelEntry, error) {
	lens, err := lengths(ls.Kind)
	if err != nil {
		return nil, err
	}
	la, err := label.ComputeContext(ctx, ls.view, ls.tree, lens, ledger.New())
	if err != nil {
		return nil, err // the plan was priced, so only ctx's
	}
	e := ls.LabelEntry
	e.Labeling = la
	return &e, nil
}
