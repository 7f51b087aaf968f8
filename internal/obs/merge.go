package obs

// Merged exposition: render several registries as a single Prometheus
// text page. Every /metricsz is one: a flowd server's page is its own
// registry plus Default, and flowdfleet's is every replica's registry plus
// Default once. Counters and gauges holding the same series key sum;
// histograms merge their snapshots (the log-bucketed layout is shared,
// so a merged histogram is exactly the histogram of the union of
// observations, and a fleet-wide p99 read off it comes from merged
// buckets, not from averaged per-replica quantiles).

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// mergedSeries accumulates one series key across registries.
type mergedSeries struct {
	name   string
	labels []Label
	kind   string
	num    float64  // counters (incl. callback counters) and gauges
	hist   Snapshot // histograms
}

// WriteMergedPrometheus renders the union of the given registries in the
// text exposition format. Series present in several registries aggregate
// by canonical series key: counters and gauges sum, histogram snapshots
// merge. Family HELP/TYPE come from the first registry that defines the
// family; a series whose kind disagrees with an earlier registry's is
// skipped (two replicas of the same build never disagree — this guards a
// mixed-version fleet from producing an unparseable page).
func WriteMergedPrometheus(w io.Writer, regs ...*Registry) error {
	fams := map[string]*family{}
	merged := map[string]*mergedSeries{}
	var order []string

	for _, r := range regs {
		if r == nil {
			continue
		}
		r.mu.RLock()
		for name, f := range r.families {
			if _, ok := fams[name]; !ok {
				fams[name] = &family{name: f.name, help: f.help, kind: f.kind}
			}
		}
		for _, key := range r.order {
			s := r.series[key]
			kind := seriesKind(s)
			m := merged[key]
			if m == nil {
				m = &mergedSeries{name: s.name, labels: s.labels, kind: kind}
				merged[key] = m
				order = append(order, key)
			} else if m.kind != kind {
				continue
			}
			switch {
			case s.ctr != nil:
				m.num += float64(s.ctr.Value())
			case s.ctrFn != nil:
				m.num += s.ctrFn.value()
			case s.gauge != nil:
				m.num += s.gauge.Value()
			case s.hist != nil:
				m.hist.Merge(s.hist.Snapshot())
			}
		}
		r.mu.RUnlock()
	}

	famNames := make([]string, 0, len(fams))
	for name := range fams {
		famNames = append(famNames, name)
	}
	sort.Strings(famNames)
	byFam := map[string][]*mergedSeries{}
	for _, key := range order {
		m := merged[key]
		byFam[m.name] = append(byFam[m.name], m)
	}

	bw := bufio.NewWriter(w)
	for _, name := range famNames {
		f := fams[name]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, m := range byFam[name] {
			if m.kind != f.kind {
				continue
			}
			switch m.kind {
			case "histogram":
				writeHist(bw, m.name, m.labels, m.hist)
			case "counter": // integral: print it whole, never in e-notation
				fmt.Fprintf(bw, "%s %s\n", seriesKey(m.name, m.labels), strconv.FormatFloat(m.num, 'f', -1, 64))
			default:
				fmt.Fprintf(bw, "%s %s\n", seriesKey(m.name, m.labels), formatFloat(m.num))
			}
		}
	}
	return bw.Flush()
}

func seriesKind(s *series) string {
	switch {
	case s.hist != nil:
		return "histogram"
	case s.gauge != nil:
		return "gauge"
	default:
		return "counter"
	}
}
