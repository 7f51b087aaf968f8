package obs

// Hand-built Prometheus text exposition (version 0.0.4) — no external
// deps. WriteMergedPrometheus (merge.go) is the one renderer: families
// render in name order with HELP/TYPE headers; histograms render as
// cumulative `_bucket{le="..."}` series (only non-empty buckets, plus
// +Inf), `_sum`, and `_count`, with durations converted to seconds.
// ParseExposition is the validating counterpart the tests read every
// /metricsz page through: it fails on unparseable lines, and flowd's
// TestTelemetryEndToEnd asserts counter monotonicity across a query burst
// on what it returns.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// writeHist renders one histogram series: cumulative buckets at the
// upper edges of non-empty buckets (seconds), +Inf, _sum, _count. The
// "le" label is merged into sorted position so every rendered series
// string is canonical seriesKey form.
func writeHist(w io.Writer, name string, labels []Label, snap Snapshot) {
	withLE := func(le string) []Label {
		ls := append(append(make([]Label, 0, len(labels)+1), labels...), L("le", le))
		sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
		return ls
	}
	var cum uint64
	for i, c := range snap.Counts {
		if c == 0 {
			continue
		}
		cum += c
		le := formatFloat(float64(bucketUpper(i)) / 1e9)
		fmt.Fprintf(w, "%s %d\n", seriesKey(name+"_bucket", withLE(le)), cum)
	}
	fmt.Fprintf(w, "%s %d\n", seriesKey(name+"_bucket", withLE("+Inf")), snap.Count)
	fmt.Fprintf(w, "%s %s\n", seriesKey(name+"_sum", labels), formatFloat(float64(snap.Sum)/1e9))
	fmt.Fprintf(w, "%s %d\n", seriesKey(name+"_count", labels), snap.Count)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// ParseExposition validates a text exposition and returns its samples as
// series-string → value. It checks comment-line shape, metric/label name
// legality, label quoting, and numeric values; any malformed line is an
// error naming the line number. Series strings match seriesKey rendering
// (labels sorted by key), so callers can look up exactly what they
// registered.
func ParseExposition(data []byte) (map[string]float64, error) {
	out := map[string]float64{}
	lines := strings.Split(string(data), "\n")
	for n, line := range lines {
		lno := n + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") || !validName(fields[2]) {
				return nil, fmt.Errorf("line %d: malformed comment %q", lno, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE missing kind", lno)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lno, fields[3])
				}
			}
			continue
		}
		key, rest, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lno, err)
		}
		val := strings.TrimSpace(rest)
		if i := strings.IndexByte(val, ' '); i >= 0 {
			// optional timestamp — must itself be numeric
			ts := strings.TrimSpace(val[i+1:])
			if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
				return nil, fmt.Errorf("line %d: bad timestamp %q", lno, ts)
			}
			val = val[:i]
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q", lno, val)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", lno, key)
		}
		out[key] = f
	}
	return out, nil
}

// parseSeries splits one sample line into its canonical series string
// (labels re-sorted by key) and the remainder after the series.
func parseSeries(line string) (string, string, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("missing value on %q", line)
	}
	name := line[:i]
	if !validName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if line[i] == ' ' {
		return name, line[i:], nil
	}
	var labels []Label
	rest := line[i+1:]
	for {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			return "", "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			rest = rest[1:]
			break
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", "", fmt.Errorf("label missing '='")
		}
		lname := strings.TrimSpace(rest[:eq])
		if !validLabelName(lname) {
			return "", "", fmt.Errorf("invalid label name %q", lname)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return "", "", fmt.Errorf("label %q value not quoted", lname)
		}
		val, rem, err := parseQuoted(rest)
		if err != nil {
			return "", "", fmt.Errorf("label %q: %v", lname, err)
		}
		labels = append(labels, Label{Key: lname, Value: val})
		rest = rem
		if rest != "" && rest[0] == ',' {
			rest = rest[1:]
		}
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	return seriesKey(name, labels), rest, nil
}

// parseQuoted consumes a double-quoted, backslash-escaped string at the
// start of s, returning the decoded value and the remainder.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("bad escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quote")
}
