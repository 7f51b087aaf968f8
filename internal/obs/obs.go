// Package obs is the unified telemetry plane: a dependency-free metric
// registry (lock-free counters, function gauges, log-bucketed latency
// histograms) plus lightweight per-request traces (trace.go) and a
// hand-built Prometheus text exposition (prom.go). The layers below the
// daemon — store, artifact, decode, wire's write queue — and the Go
// runtime gauges record into the process-wide Default registry; each flowd
// server counts into a registry of its own, and its /metricsz renders the
// two merged (merge.go), so one scrape sees the whole stack and no server
// sees another's counts.
//
// Hot-path discipline: a metric handle is resolved once (package-level
// var, or a prebuilt per-family map) and every subsequent Observe/Add is
// a handful of atomic bumps — no locks, no allocation, no formatting.
// The registry's own mutex is touched only at registration and scrape
// time.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. The zero value is ready.
type Counter struct {
	v atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n (n >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time value read at scrape time via a callback, so
// registering one costs nothing on any request path.
type Gauge struct{ funcValue }

// Value evaluates the gauge (0 before a callback is installed).
func (g *Gauge) Value() float64 { return g.value() }

// funcValue is a scrape-time callback holder shared by gauges and
// callback-backed counters; the mutex only guards callback replacement.
type funcValue struct {
	mu sync.Mutex
	fn func() float64
}

func (f *funcValue) set(fn func() float64) {
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

func (f *funcValue) value() float64 {
	f.mu.Lock()
	fn := f.fn
	f.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// series is one registered metric: its family identity plus exactly one
// of the metric kinds.
type series struct {
	name   string // family name
	labels []Label
	ctr    *Counter
	ctrFn  *funcValue // counter backed by a scrape-time callback
	gauge  *Gauge
	hist   *Histogram
}

// family groups the series of one metric name for exposition.
type family struct {
	name string
	help string
	kind string // "counter" | "gauge" | "histogram"
}

// Registry holds metric series keyed by (name, labels). Get-or-create
// lookups are idempotent: two callers asking for the same (name, labels)
// receive the same handle, so everything that records into one registry
// shares its series.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	series   map[string]*series // seriesKey -> series
	order    []string           // registration order of series keys (stable exposition)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}, series: map[string]*series{}}
}

var defaultRegistry = func() *Registry {
	r := NewRegistry()
	registerRuntimeGauges(r)
	return r
}()

// Default is the process-wide registry: the layers below the daemon record
// into it, and it alone carries the Go runtime gauges, so a page merging
// several registries with it counts the runtime once.
func Default() *Registry { return defaultRegistry }

// seriesKey renders the canonical identity of one series: the family
// name plus its labels sorted by key — the same rendering the Prometheus
// exposition uses, so a key is also a valid series string.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// validName reports whether s is a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether s is a legal Prometheus label name.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// prep validates and canonicalizes a registration request, returning the
// sorted label copy and the series key. Invalid names are programmer
// errors and panic at registration (never on a request path).
func prep(name, kind string, labels []Label) ([]Label, string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for _, l := range ls {
		if !validLabelName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l.Key, name))
		}
	}
	_ = kind
	return ls, seriesKey(name, ls)
}

// register resolves (or creates) one series under the registry lock.
// A kind mismatch against an existing family panics: two layers fighting
// over one name is a bug worth failing loudly on.
func (r *Registry) register(name, help, kind string, labels []Label, mk func() *series) *series {
	ls, key := prep(name, kind, labels)
	r.mu.RLock()
	s := r.series[key]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.series[key]; s != nil {
		return s
	}
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	s = mk()
	s.name, s.labels = name, ls
	r.series[key] = s
	r.order = append(r.order, key)
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. help is recorded on first registration of the family.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, "counter", labels, func() *series {
		return &series{ctr: &Counter{}}
	})
	if s.ctr == nil {
		panic(fmt.Sprintf("obs: series %q is not a counter", seriesKey(name, labels)))
	}
	return s.ctr
}

// Histogram returns the histogram for (name, labels), creating it on
// first use. Values are durations; the exposition is in seconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.register(name, help, "histogram", labels, func() *series {
		return &series{hist: NewHistogram()}
	})
	if s.hist == nil {
		panic(fmt.Sprintf("obs: series %q is not a histogram", seriesKey(name, labels)))
	}
	return s.hist
}

// Gauge registers fn as the value of (name, labels), evaluated at scrape
// time. Re-registering the same series replaces the callback.
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, "gauge", labels, func() *series {
		return &series{gauge: &Gauge{}}
	})
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: series %q is not a gauge", seriesKey(name, labels)))
	}
	s.gauge.set(fn)
}

// CounterFunc registers fn as a counter read at scrape time — for layers
// (like the wire transport) that already keep their own atomic counters
// and should not double-bump on the hot path. fn must be monotone.
// Re-registering the same series replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.register(name, help, "counter", labels, func() *series {
		return &series{ctrFn: &funcValue{}}
	})
	if s.ctrFn == nil {
		panic(fmt.Sprintf("obs: series %q is not a callback counter", seriesKey(name, labels)))
	}
	s.ctrFn.set(func() float64 { return float64(fn()) })
}
