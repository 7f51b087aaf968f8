package main

// Reproducible-run reporting: every experiment instance emits one Record,
// which the sink fans out to the console table, a CSV file, a JSONL file
// (one JSON object per line), and the baseline comparator. The CSV/JSONL
// schema is documented in EXPERIMENTS.md.

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// Record is one experiment run on one instance.
type Record struct {
	Exp      string `json:"exp"`             // experiment id (E1..E10, SCHED, SERVE)
	Instance string `json:"instance"`        // instance label, e.g. "a:grid12x12"
	N        int    `json:"n"`               // vertices
	D        int    `json:"d"`               // hop diameter (lower bound for random families)
	Rounds   int64  `json:"rounds"`          // total simulated CONGEST rounds
	Measured int64  `json:"measured_rounds"` // rounds counted by the engine
	Charged  int64  `json:"charged_rounds"`  // rounds derived by pipelining bounds
	Messages int64  `json:"messages"`        // engine messages delivered (engine-level experiments only)
	Bits     int64  `json:"bits"`            // engine payload bits delivered (engine-level experiments only)
	Repeat   int    `json:"repeat"`          // 0-based repeat index
	Seed     int64  `json:"seed"`            // RNG seed the repeat ran with
	OK       bool   `json:"ok"`              // experiment-specific correctness check

	// Serving metrics (SERVE only).
	Queries int     `json:"queries,omitempty"`   // number of queries in the batch
	Speedup float64 `json:"speedup_x,omitempty"` // cold rounds / prepared rounds
}

// key identifies a record across runs for baseline comparison. Seeds stay
// out: the key must be stable for identical configurations.
func (r Record) key() string {
	return fmt.Sprintf("%s/%s/r%d", r.Exp, r.Instance, r.Repeat)
}

// sink fans records out to the enabled outputs.
type sink struct {
	records []Record

	csvW   *csv.Writer
	csvF   *os.File
	jsonlW *bufio.Writer
	jsonlF *os.File
	enc    *json.Encoder
}

var csvHeader = []string{
	"exp", "instance", "n", "d", "rounds", "measured_rounds", "charged_rounds",
	"messages", "bits", "repeat", "seed", "ok",
	"queries", "speedup_x",
}

func newSink(csvPath, jsonlPath string) (*sink, error) {
	s := &sink{}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return nil, err
		}
		s.csvF = f
		s.csvW = csv.NewWriter(f)
		if err := s.csvW.Write(csvHeader); err != nil {
			return nil, err
		}
	}
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return nil, err
		}
		s.jsonlF = f
		s.jsonlW = bufio.NewWriter(f)
		s.enc = json.NewEncoder(s.jsonlW)
	}
	return s, nil
}

func (s *sink) add(r Record) {
	s.records = append(s.records, r)
	if s.csvW != nil {
		s.csvW.Write([]string{
			r.Exp, r.Instance, strconv.Itoa(r.N), strconv.Itoa(r.D),
			strconv.FormatInt(r.Rounds, 10), strconv.FormatInt(r.Measured, 10),
			strconv.FormatInt(r.Charged, 10), strconv.FormatInt(r.Messages, 10),
			strconv.FormatInt(r.Bits, 10),
			strconv.Itoa(r.Repeat), strconv.FormatInt(r.Seed, 10), strconv.FormatBool(r.OK),
			strconv.Itoa(r.Queries), strconv.FormatFloat(r.Speedup, 'f', 2, 64),
		})
	}
	if s.enc != nil {
		s.enc.Encode(r)
	}
}

func (s *sink) close() error {
	var firstErr error
	if s.csvW != nil {
		s.csvW.Flush()
		if err := s.csvW.Error(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.csvF.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.jsonlW != nil {
		if err := s.jsonlW.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.jsonlF.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// baseline is the stored trajectory a run is diffed against: Records holds
// the per-key round counts the comparator uses, Points the full records of
// the run that produced them. Nothing in a Record depends on the host or
// the clock, so one tree always writes the same bytes.
type baseline struct {
	Schema  string           `json:"schema"`
	Records map[string]int64 `json:"records"` // key() -> rounds
	Points  []Record         `json:"points,omitempty"`
}

const baselineSchema = "flowbench-baseline/v1"

func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	if b.Schema != baselineSchema {
		return nil, fmt.Errorf("baseline %s: unknown schema %q", path, b.Schema)
	}
	return &b, nil
}

func writeBaseline(path string, records []Record) error {
	b := baseline{Schema: baselineSchema, Records: map[string]int64{}, Points: records}
	for _, r := range records {
		b.Records[r.key()] = r.Rounds
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare diffs this run's records against a stored baseline and reports
// per-key round-count regressions beyond tol (fractional). Baseline keys
// absent from this run also count as regressions: an instance that stopped
// producing a record (e.g. the algorithm now errors out) is a lost result,
// not a pass. Returns the number of regressions.
func compare(b *baseline, records []Record, tol float64) int {
	regressions := 0
	keys := make([]string, 0, len(records))
	byKey := map[string]int64{}
	for _, r := range records {
		if _, dup := byKey[r.key()]; !dup {
			keys = append(keys, r.key())
		}
		byKey[r.key()] = r.Rounds
	}
	sort.Strings(keys)
	fmt.Println("\n## baseline comparison")
	for _, k := range keys {
		got := byKey[k]
		want, ok := b.Records[k]
		switch {
		case !ok:
			fmt.Printf("  NEW        %-40s rounds=%d\n", k, got)
		case float64(got) > float64(want)*(1+tol):
			regressions++
			fmt.Printf("  REGRESSION %-40s rounds=%d baseline=%d (+%.1f%%)\n",
				k, got, want, 100*(float64(got)/float64(want)-1))
		case got < want:
			fmt.Printf("  IMPROVED   %-40s rounds=%d baseline=%d (%.1f%%)\n",
				k, got, want, 100*(float64(got)/float64(want)-1))
		default:
			fmt.Printf("  OK         %-40s rounds=%d\n", k, got)
		}
	}
	missing := make([]string, 0)
	for k := range b.Records {
		if _, ok := byKey[k]; !ok {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	for _, k := range missing {
		regressions++
		fmt.Printf("  MISSING    %-40s (in baseline, not in this run)\n", k)
	}
	if regressions > 0 {
		fmt.Printf("%d round-count regression(s) vs baseline\n", regressions)
	} else {
		fmt.Println("no round-count regressions vs baseline")
	}
	return regressions
}
