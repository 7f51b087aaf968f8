package cmdtest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// auditedDirs are the packages whose exported surface must be reached by
// production code: the serving stack, the substrates under it and the
// algorithm stack they run exist to serve a request, so a name only tests
// call is a path no request can take. Every entry must hold a non-test
// package, so a renamed or emptied directory cannot pass by auditing
// nothing.
var auditedDirs = []string{
	"internal/wire", "internal/flowd", "internal/fleet", "internal/store", "internal/obs",
	"internal/label", "internal/snapshot", "internal/artifact",
	"internal/core", "internal/decode", "internal/bdd", "internal/separator", "internal/minoragg",
	"internal/pa", "internal/hatg", "internal/congest", "internal/spath", "internal/planar",
	"internal/ledger", "internal/codec",
}

// unreachedAllowed lists exported names no non-test file references and
// why each stays. A row whose name becomes referenced (or disappears)
// fails the test too, so the table cannot go stale. Every reason is one of
// four: the interface the method satisfies; the test in another package
// that compares against it; the ledger formula or paper property its
// execution grounds; or the ROADMAP item that owns the decision. A helper
// only its own package's tests use belongs in a _test.go file instead.
var unreachedAllowed = map[string]string{
	// References, checkers and generators other packages' tests compare against.
	"store.Store.EvictAll":        "flowd's TestPeerRestoreDiskRung empties the memory tier through it to reach the disk rung",
	"planar.InsertEdgeInFace":     "the oracle core's TestHassinMatchesInsertRoute holds the in-place face split to",
	"planar.Graph.CommonFaces":    "names the face core's TestHassinMatchesInsertRoute embeds the virtual edge in; the map-based reference of FirstCommonFace",
	"planar.RemoveRandomEdges":    "generator of sparse planar inputs for the bdd, core, hatg, label, minoragg and separator tests",
	"planar.FaceData.LargestFace": "picks the outer face in minoragg's TestMarkDualCutEdges and pa's TestDualPAGroupedFaces",
	"spath.APSPBellmanFord":       "the all-pairs baseline label's TestLabelsMatchBaselinePositive and TestMatchesBaselineGrids compare every distance against",
	"spath.DirectedMinCycle":      "the baseline core's TestDirectedGirthMatchesBaseline compares directed girth against",
	"spath.CutWeightDirected":     "the checker core's TestGlobalMinCutMatchesBaseline weighs a reported side with",
	"obs.ParseExposition":         "the strict exposition parser cmd/flowdfleet's TestMetricsz* tests read every /metricsz page through",
	"flowd.FamilyChecks":          "the one-query-per-family list fleet's TestFleetFailoverBitIdentical and cmd/flowd's TestBootServeDrainRestore gate bit-identity on",
	"flowd.RestartKey":            "the bit-identity key fleet's TestFleetFailoverBitIdentical and TestFleetAdoptPeerRestoreOneTrace and cmd/flowd's TestBootServeDrainRestore compare answers by",
	"snapshot.Decode":             "DecodeContext without a context: the restore label's TestRestoredFootprintBoundsHeap and TestPlanMatchesMapReference and bdd's TestBagStateMatchesReference hold to built substrates",
	"label.Labeling.State":        "the labels and retained DDGs snapshot's TestRestoredEqualsComputed holds a restored labeling to, and core's TestMinCyclesMatchReferences reads the DDG reference from",

	// Decisions a ROADMAP item owns.
	"label.Layouts": "a tree's label layout, timed by the root BenchmarkLabelPlan and gated by TestAllocCeilings: ROADMAP item 19's cost card is a function over it",

	// Executions that ground a ledger formula or a paper property.
	"congest.PipelinedBroadcast": "grounds ledger.PipelinedBroadcastRounds (depth + k) by exchanging the messages",
	"congest.TreeAggregate":      "grounds the 2·(depth+1) convergecast-and-broadcast charge of maxflow/find-path, dirgirth/assemble and */mark-tree (TestTreeAggregateSum)",
	"congest.IdentifyFaces":      "grounds Property 4 of Ĝ, the minimum-ID face leader pa.faceLeaders elects",

	// Methods reached only through an interface, never named at a call site.
	"wire.Status.String":      "fmt.Stringer",
	"label.View.String":       "fmt.Stringer",
	"ledger.Kind.String":      "fmt.Stringer",
	"ledger.Scope.String":     "fmt.Stringer",
	"flowd.APIError.Error":    "error",
	"flowd.StatusError.Error": "error",
	"flowd.StatusError.Is":    "errors.Is protocol",
	"congest.Engine.Run":      "congest.Runner",
	"congest.Engine.B":        "congest.Runner",
	"congest.Engine.Graph":    "congest.Runner",
	"hatg.Graph.NeighborsOf":  "pa.Network",
	"core.hassinDual.N":       "spath.Adjacency",
	"core.hassinDual.Out":     "spath.Adjacency",
}

// TestNoUnreachedExports type-checks every non-test file of the tree
// (bench/ included: it is a second module, but a caller all the same)
// and fails when an exported func, method, const or var declared in the
// audited packages is referenced by none of them, or when an unexported
// func or method anywhere in the tree is referenced by no file at all.
func TestNoUnreachedExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree from source")
	}
	root := repoRoot(t)
	fset := token.NewFileSet()
	im := &treeImporter{
		fset: fset, root: root,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}

	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.Dir(path); len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hasPackage := map[string]bool{}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		hasPackage[filepath.ToSlash(rel)] = true
		path := "planarflow"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := im.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range im.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}
	audited := map[string]bool{}
	for _, d := range auditedDirs {
		if !hasPackage[d] {
			t.Errorf("%s: audited, but it holds no non-test package — a renamed or emptied directory audits nothing; fix the entry", d)
		}
		audited["planarflow/"+d] = true
	}
	unreached := map[string]bool{}
	for id, obj := range im.info.Defs {
		if obj == nil || !id.IsExported() || obj.Pkg() == nil || !audited[obj.Pkg().Path()] || used[obj] {
			continue
		}
		name := obj.Pkg().Name() + "."
		switch o := obj.(type) {
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				name += recvName(recv.Type()) + "."
			}
		case *types.Const:
		case *types.Var:
			if o.IsField() || o.Parent() != o.Pkg().Scope() {
				continue
			}
		default:
			continue
		}
		unreached[name+obj.Name()] = true
	}

	var bad []string
	for _, name := range deadUnexported(t, fset, im.info, used) {
		bad = append(bad, fmt.Sprintf("%s: unexported and referenced by no file — delete it", name))
	}
	for name := range unreached {
		if _, ok := unreachedAllowed[name]; !ok {
			bad = append(bad, fmt.Sprintf("%s: exported but referenced by no non-test file — delete it, unexport it, or add an allowlist row with a reason", name))
		}
	}
	for name := range unreachedAllowed {
		if !unreached[name] {
			bad = append(bad, fmt.Sprintf("%s: allowlisted as unreached, but it is referenced now (or gone) — drop the row", name))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// deadUnexported lists the unexported package-level funcs and methods of
// the tree that no file references: no non-test file (used) and no test
// file of their own package, the only files that can name them. A method
// whose name some interface of the tree declares may be reached through
// that interface and is skipped.
func deadUnexported(t *testing.T, fset *token.FileSet, info *types.Info, used map[types.Object]bool) []string {
	ifaceMethods := map[string]bool{}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
	}
	testIdents := map[string]map[string]bool{} // package dir → identifiers its test files name
	namedInTests := func(dir, name string) bool {
		if testIdents[dir] == nil {
			testIdents[dir] = map[string]bool{}
			paths, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			for _, path := range paths {
				f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						testIdents[dir][id.Name] = true
					}
					return true
				})
			}
		}
		return testIdents[dir][name]
	}
	var dead []string
	for id, obj := range info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || id.IsExported() || used[obj] || id.Name == "init" || id.Name == "main" || id.Name == "_" {
			continue
		}
		name := fn.Pkg().Name() + "."
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if ifaceMethods[id.Name] {
				continue
			}
			name += recvName(recv.Type()) + "."
		} else if fn.Parent() != fn.Pkg().Scope() {
			continue
		}
		if !namedInTests(filepath.Dir(fset.Position(id.Pos()).Filename), id.Name) {
			dead = append(dead, name+id.Name)
		}
	}
	return dead
}

// recvName names a method's receiver type without pointer or package.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// repoRoot walks up from the test's directory to the root go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module planarflow\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no planarflow go.mod above the test directory")
		}
		dir = parent
	}
}

// treeImporter resolves planarflow/... import paths to directories of
// the tree (bench/'s module path planarflow/bench maps the same way) and
// everything else to the standard library, recording every package's
// definitions and uses in one shared Info.
type treeImporter struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*types.Package
	info *types.Info
}

func (im *treeImporter) Import(path string) (*types.Package, error) {
	if path != "planarflow" && !strings.HasPrefix(path, "planarflow/") {
		return im.std.Import(path)
	}
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(im.root, filepath.FromSlash(strings.TrimPrefix(path, "planarflow")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	pkg, err := (&types.Config{Importer: im}).Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}
