package cmdtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// valueFlags are the go test flags whose value is a separate word, so it
// is not read as a package.
var valueFlags = map[string]bool{
	"-run": true, "-timeout": true, "-fuzz": true, "-fuzztime": true,
	"-bench": true, "-benchtime": true, "-count": true, "-cpu": true, "-parallel": true,
}

// TestCIRunPatternsMatch holds every named CI step to what it names: each
// alternative of each `go test … -run '…'` pattern in the workflow must
// match a Test, Fuzz or Benchmark function of a package that line lists,
// so deleting or renaming a test cannot leave a step silently running
// nothing. The run-nothing idiom `xxx` is exempt.
func TestCIRunPatternsMatch(t *testing.T) {
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		words := shellWords(cmd)
		var run string
		var pkgs []string
		for i := 0; i < len(words); i++ {
			w := words[i]
			switch {
			case valueFlags[w] && i+1 < len(words):
				if w == "-run" {
					run = words[i+1]
				}
				i++
			case strings.HasPrefix(w, "-run="):
				run = strings.TrimPrefix(w, "-run=")
			case w == "." || strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			}
		}
		if run == "" || run == "xxx" {
			continue
		}
		if len(pkgs) == 0 {
			t.Errorf("ci.yml:%d: -run %q lists no package", n+1, run)
			continue
		}
		var funcs []string
		for _, p := range pkgs {
			funcs = append(funcs, testFuncs(t, root, p)...)
		}
		for _, alt := range strings.Split(run, "|") {
			re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
			if err != nil {
				t.Errorf("ci.yml:%d: -run alternative %q: %v", n+1, alt, err)
				continue
			}
			matched := false
			for _, f := range funcs {
				if re.MatchString(f) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml:%d: -run alternative %q matches no test in %v", n+1, alt, pkgs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in ci.yml")
	}
}

// shellWords splits a command line on spaces, keeping single-quoted words
// whole and dropping the quotes.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	quoted, inWord := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if inWord {
				words, inWord = append(words, cur.String()), false
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// testFuncs lists the Test, Fuzz and Benchmark functions of the package at
// pkg (relative to root); pkg ending in /... takes every package below it.
func testFuncs(t *testing.T, root, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	dir = filepath.Join(root, filepath.FromSlash(dir))
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return names
}
