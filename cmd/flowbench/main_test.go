package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"planarflow/internal/cmdtest"
)

// TestSmokeE8 runs the cheapest table-producing experiment end-to-end with
// repeats and both sinks, and checks the contract the harness promises:
// parseable CSV/JSONL with one record per instance per repeat.
func TestSmokeE8(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "out.jsonl")
	csvPath := filepath.Join(dir, "out.csv")
	out := cmdtest.RunMain(t, "-exp", "E8", "-repeats", "2", "-jsonl", jsonl, "-csv", csvPath)
	cmdtest.ExpectMarkers(t, out, "## E8", "grid6x6")

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 || len(recs)%2 != 0 {
		t.Fatalf("want an even, positive number of records (2 repeats), got %d", len(recs))
	}
	perRepeat := map[int]int{}
	for _, r := range recs {
		if r.Exp != "E8" || r.N <= 0 || r.Rounds <= 0 {
			t.Fatalf("malformed record: %+v", r)
		}
		perRepeat[r.Repeat]++
	}
	if perRepeat[0] != perRepeat[1] {
		t.Fatalf("repeats differ in record count: %v", perRepeat)
	}

	cf, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	rows, err := csv.NewReader(cf).ReadAll()
	if err != nil {
		t.Fatalf("unparseable CSV: %v", err)
	}
	if len(rows) != len(recs)+1 {
		t.Fatalf("CSV rows=%d want %d (header + one per record)", len(rows), len(recs)+1)
	}
}

// TestSmokeServe runs the SERVE experiment at smoke size and checks the
// serving contract: per-query equality between cold and prepared paths (OK
// bit), prepared rounds strictly below cold rounds for every workload,
// and an amortized speedup (a ratio of rounds) ≥ 5x for the label-decode
// (dist) workload — the patterns whose full-size trajectories live in
// BENCH_serve.json. Nothing here reads a clock.
func TestSmokeServe(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "serve.jsonl")
	out := cmdtest.RunMain(t, "-exp", "serve", "-jsonl", jsonl)
	cmdtest.ExpectMarkers(t, out, "## SERVE", "dist", "prepared")

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byInstance := map[string]Record{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", sc.Text(), err)
		}
		if !r.OK {
			t.Fatalf("cold/prepared results diverged: %+v", r)
		}
		byInstance[r.Instance] = r
	}
	if len(byInstance) != 8 {
		t.Fatalf("want 8 serve records (4 workloads x 2 paths), got %d", len(byInstance))
	}
	for _, workload := range []string{"dist", "dualsssp", "maxflow", "stflow"} {
		var cold, prep *Record
		for inst, r := range byInstance {
			r := r
			if strings.HasPrefix(inst, workload+"-") {
				if strings.HasSuffix(inst, ":cold") {
					cold = &r
				} else if strings.HasSuffix(inst, ":prepared") {
					prep = &r
				}
			}
		}
		if cold == nil || prep == nil {
			t.Fatalf("workload %s missing cold/prepared records", workload)
		}
		if prep.Rounds >= cold.Rounds {
			t.Fatalf("%s: prepared rounds %d not below cold %d", workload, prep.Rounds, cold.Rounds)
		}
		if prep.Queries != serveQueries {
			t.Fatalf("%s: queries=%d want %d", workload, prep.Queries, serveQueries)
		}
	}
	for inst, r := range byInstance {
		if strings.HasPrefix(inst, "dist-") && strings.HasSuffix(inst, ":prepared") && r.Speedup < 5 {
			t.Fatalf("dist amortized speedup %.2f below 5x", r.Speedup)
		}
	}
}

// TestSmokeBaselineRoundTrip writes a baseline from a SCHED run, verifies a
// second identical run passes against it, and that a doctored baseline is
// flagged as a regression (exit code 1).
func TestSmokeBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cmdtest.RunMain(t, "-exp", "sched", "-write-baseline", base)
	out := cmdtest.RunMain(t, "-exp", "sched", "-baseline", base)
	cmdtest.ExpectMarkers(t, out, "no round-count regressions")

	b, err := loadBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Points) == 0 {
		t.Fatal("baseline carries no trajectory points")
	}
	for k := range b.Records {
		b.Records[k] = 1 // everything becomes a regression
	}
	if regs := compare(b, b.Points, 0); regs == 0 {
		t.Fatal("doctored baseline not flagged as regression")
	}
}

// TestBaselineDeterministic: a Record holds rounds, counts and seeds and
// nothing read off the host, so writing a baseline twice from one tree
// yields the same bytes — a committed BENCH_*.json changes only when the
// algorithm's accounting does.
func TestBaselineDeterministic(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i, name := range []string{"first.json", "second.json"} {
		path := filepath.Join(dir, name)
		cmdtest.RunMain(t, "-exp", "serve", "-write-baseline", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two baselines written from one tree differ:\n%s\n---\n%s", files[0], files[1])
	}
}

// TestRecordSchema pins the two things a reader of the sinks relies on:
// the CSV header is exactly Record's JSON field names in declaration order
// (so the CSV and JSONL schemas cannot drift apart, or away from the table
// in EXPERIMENTS.md), and the experiment list is the round-count set —
// wall-clock serving questions live in bench/, not here.
func TestRecordSchema(t *testing.T) {
	rt := reflect.TypeOf(Record{})
	var tags []string
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		tags = append(tags, name)
	}
	if !reflect.DeepEqual(tags, csvHeader) {
		t.Fatalf("CSV header and Record JSON tags differ:\n csv  %v\n json %v", csvHeader, tags)
	}
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "SCHED", "SERVE"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("experiments = %v, want %v", ids, want)
	}
}
