package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestExpositionRoundTrip renders a registry with all three metric kinds
// and re-parses it, checking the parsed samples match what was recorded
// and that histogram bucket series are cumulative and consistent.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests.", L("transport", "http"), L("family", "sssp"))
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	r.Gauge("test_resident", "Resident graphs.", func() float64 { return 3 })
	h := r.Histogram("test_latency_seconds", "Latency.", L("family", "sssp"))
	h.Observe(1 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(500 * time.Millisecond)

	var buf bytes.Buffer
	if err := WriteMergedPrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		"# TYPE test_resident gauge",
		"# TYPE test_latency_seconds histogram",
		"# HELP test_requests_total Requests.",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("self-rendered exposition failed to parse: %v\n%s", err, text)
	}
	// Labels sort by key: family before transport.
	if got := samples[`test_requests_total{family="sssp",transport="http"}`]; got != 42 {
		t.Fatalf("counter sample = %v", got)
	}
	if got := samples[`test_resident`]; got != 3 {
		t.Fatalf("gauge sample = %v", got)
	}
	if got := samples[`test_latency_seconds_count{family="sssp"}`]; got != 3 {
		t.Fatalf("hist count = %v", got)
	}
	if got := samples[`test_latency_seconds_bucket{family="sssp",le="+Inf"}`]; got != 3 {
		t.Fatalf("+Inf bucket = %v", got)
	}
	sum := samples[`test_latency_seconds_sum{family="sssp"}`]
	if sum < 0.502 || sum > 0.504 {
		t.Fatalf("hist sum = %v, want ~0.503", sum)
	}
	// Cumulative buckets never decrease and end at count.
	var prev float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "test_latency_seconds_bucket") {
			continue
		}
		key, _, _ := strings.Cut(line, " ")
		v := samples[key]
		if v < prev {
			t.Fatalf("bucket series not cumulative at %s: %v < %v", key, v, prev)
		}
		prev = v
	}
	if prev != 3 {
		t.Fatalf("last bucket = %v, want count 3", prev)
	}
}

// TestParseExpositionRejects feeds malformed lines the CI gate must fail
// on.
func TestParseExpositionRejects(t *testing.T) {
	bad := []string{
		"no_value_here",
		"1leading_digit 3",
		`m{label~="x"} 1`,
		`m{l="unterminated} 1`,
		`m{l="x"} notanumber`,
		`m{l="x"} 1 badtimestamp`,
		"# BOGUS m counter",
		"# TYPE m frobnicator",
		"# TYPE m",
		`m{l="a"} 1` + "\n" + `m{l="a"} 2`, // duplicate series
		`m{l="bad\escape"} 1`,
	}
	for _, in := range bad {
		if _, err := ParseExposition([]byte(in)); err == nil {
			t.Errorf("ParseExposition accepted malformed input %q", in)
		}
	}
}

// TestParseExpositionAccepts covers valid corners: timestamps, escaped
// label values, label order canonicalization, trailing commas.
func TestParseExpositionAccepts(t *testing.T) {
	in := strings.Join([]string{
		"# HELP m Some help with spaces.",
		"# TYPE m counter",
		`m{z="1",a="2"} 5 1700000000000`,
		`m{a="es\"c\\ap\ne",} 7`,
		"plain 1.5e-3",
	}, "\n")
	samples, err := ParseExposition([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[`m{a="2",z="1"}`]; got != 5 {
		t.Fatalf("label canonicalization failed: %v", samples)
	}
	if got := samples[`m{a="es\"c\\ap\ne"}`]; got != 7 {
		t.Fatalf("escape round-trip failed: %v", samples)
	}
	if got := samples["plain"]; got != 0.0015 {
		t.Fatalf("plain sample = %v", got)
	}
}

// TestRegistryIdempotent checks get-or-create returns the same handle
// and kind mismatches panic.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("idem_total", "x", L("k", "v"))
	b := r.Counter("idem_total", "x", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles not shared")
	}
	c := r.Counter("idem_total", "x", L("k", "w"))
	if c == a {
		t.Fatal("distinct labels returned same counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind mismatch did not panic")
			}
		}()
		r.Histogram("idem_total", "x")
	}()
}

// TestGaugeReplace checks re-registering a gauge swaps the callback.
func TestGaugeReplace(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "x", func() float64 { return 1 })
	r.Gauge("g", "x", func() float64 { return 2 })
	var buf bytes.Buffer
	if err := WriteMergedPrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples["g"] != 2 {
		t.Fatalf("gauge = %v after replace", samples["g"])
	}
}

func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	registerRuntimeGauges(r)
	registerRuntimeGauges(r) // idempotent
	var buf bytes.Buffer
	if err := WriteMergedPrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples["go_goroutines"] < 1 {
		t.Fatalf("go_goroutines = %v", samples["go_goroutines"])
	}
	if samples["go_memstats_heap_alloc_bytes"] <= 0 {
		t.Fatalf("heap gauge = %v", samples["go_memstats_heap_alloc_bytes"])
	}
}
