package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromStats summarizes a validated Prometheus exposition.
type PromStats struct {
	Families int
	Samples  int
	Names    []string // family names, sorted
}

// ValidatePrometheus parses r as Prometheus text exposition format
// (version 0.0.4) and validates it: everything parseExposition checks,
// plus histogram consistency (cumulative buckets, +Inf bucket present
// and equal to _count for every label set). It is the go-side stand-in
// for promtool used by CI's serve-smoke — errors carry line numbers. It
// is deliberately stricter than a scraper needs to be: our own
// exposition must pass it exactly.
func ValidatePrometheus(r io.Reader) (PromStats, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return PromStats{}, err
	}
	fams, order, err := parseExposition(string(text))
	if err != nil {
		return PromStats{}, err
	}
	var stats PromStats
	for _, name := range order {
		f := fams[name]
		if f.typ == "" {
			continue // a HELP without a TYPE declares no family
		}
		if f.typ == "histogram" {
			if err := checkHistogram(f); err != nil {
				return PromStats{}, err
			}
		}
		stats.Names = append(stats.Names, name)
		stats.Samples += len(f.samples)
	}
	sort.Strings(stats.Names)
	stats.Families = len(stats.Names)
	return stats, nil
}

type bucketSample struct {
	le   float64
	cum  float64
	line int
}

// checkHistogram checks every series of histogram f (one per label set
// other than le): ascending, cumulative buckets ending in +Inf, a _sum,
// and a _count equal to the +Inf bucket.
func checkHistogram(f *expoFamily) error {
	type series struct {
		buckets          []bucketSample
		hasSum, hasCount bool
		count            float64
	}
	byKey := make(map[string]*series)
	var keys []string
	for _, smp := range f.samples {
		key, le, _ := histLabelKey(smp.labels)
		hs := byKey[key]
		if hs == nil {
			hs = &series{}
			byKey[key] = hs
			keys = append(keys, key)
		}
		switch smp.name {
		case f.name + "_bucket":
			leVal, err := parseFloatValue(le)
			if err != nil {
				return fmt.Errorf("line %d: bad le %q: %v", smp.line, le, err)
			}
			hs.buckets = append(hs.buckets, bucketSample{le: leVal, cum: smp.value, line: smp.line})
		case f.name + "_sum":
			hs.hasSum = true
		case f.name + "_count":
			hs.hasCount, hs.count = true, smp.value
		}
	}
	for _, key := range keys {
		hs := byKey[key]
		where := f.name
		if key != "" {
			where = f.name + "{" + key + "}"
		}
		if len(hs.buckets) == 0 {
			return fmt.Errorf("histogram %s has no buckets", where)
		}
		if !hs.hasCount || !hs.hasSum {
			return fmt.Errorf("histogram %s missing _sum or _count", where)
		}
		prev := -1.0
		var prevCum float64
		for i, b := range hs.buckets {
			if i > 0 && b.le <= prev {
				return fmt.Errorf("line %d: histogram %s buckets not ascending (le %g after %g)", b.line, where, b.le, prev)
			}
			if b.cum < prevCum {
				return fmt.Errorf("line %d: histogram %s buckets not cumulative (%g after %g)", b.line, where, b.cum, prevCum)
			}
			prev, prevCum = b.le, b.cum
		}
		last := hs.buckets[len(hs.buckets)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("histogram %s missing +Inf bucket", where)
		}
		if last.cum != hs.count {
			return fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", where, last.cum, hs.count)
		}
	}
	return nil
}

var promTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// parseComment reads one # line into its family: a HELP sets the help
// text once, a TYPE declares the type once. Other comments are
// free-form.
func parseComment(text string, line int, family func(string) *expoFamily) error {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment, allowed
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("line %d: malformed HELP", line)
		}
		if !metricNameRe.MatchString(fields[2]) {
			return fmt.Errorf("line %d: HELP for invalid metric name %q", line, fields[2])
		}
		f := family(fields[2])
		if f.helped {
			return fmt.Errorf("line %d: duplicate HELP for %s", line, f.name)
		}
		f.helped = true
		if len(fields) == 4 {
			f.help = fields[3]
		}
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("line %d: malformed TYPE", line)
		}
		fam, typ := fields[2], strings.TrimSpace(fields[3])
		if !metricNameRe.MatchString(fam) {
			return fmt.Errorf("line %d: TYPE for invalid metric name %q", line, fam)
		}
		if !promTypes[typ] {
			return fmt.Errorf("line %d: unknown type %q for %s", line, typ, fam)
		}
		// A family's samples need its TYPE first, so a TYPE after them
		// is a duplicate.
		f := family(fam)
		if f.typ != "" {
			return fmt.Errorf("line %d: duplicate TYPE for %s", line, fam)
		}
		f.typ = typ
	}
	return nil
}

// familyOf maps a sample name to its declared family, folding histogram
// _bucket/_sum/_count suffixes onto the base name when that base was
// declared as a histogram.
func familyOf(name string, fams map[string]*expoFamily) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if f := fams[base]; base != name && f != nil && f.typ == "histogram" {
			return base
		}
	}
	return name
}

// parseSample parses `name{label="value",...} value` (timestamp
// deliberately unsupported — we never emit one).
func parseSample(text string, line int) (name string, labels map[string]string, value float64, err error) {
	rest := text
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("line %d: malformed sample %q", line, text)
	}
	name = rest[:i]
	if !metricNameRe.MatchString(name) {
		return "", nil, 0, fmt.Errorf("line %d: invalid metric name %q", line, name)
	}
	rest = rest[i:]
	labels = map[string]string{}
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if len(rest) > 0 && rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("line %d: malformed labels in %q", line, text)
			}
			lname := strings.TrimSpace(rest[:eq])
			if !labelNameRe.MatchString(lname) && lname != "le" {
				return "", nil, 0, fmt.Errorf("line %d: invalid label name %q", line, lname)
			}
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				return "", nil, 0, fmt.Errorf("line %d: unquoted label value in %q", line, text)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for len(rest) > 0 {
				c := rest[0]
				if c == '\\' {
					if len(rest) < 2 {
						return "", nil, 0, fmt.Errorf("line %d: dangling escape in %q", line, text)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("line %d: bad escape \\%c", line, rest[1])
					}
					rest = rest[2:]
					continue
				}
				if c == '"' {
					rest = rest[1:]
					closed = true
					break
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("line %d: unterminated label value in %q", line, text)
			}
			labels[lname] = val.String()
			if len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
			}
		}
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return "", nil, 0, fmt.Errorf("line %d: sample %s has no value", line, name)
	}
	if strings.ContainsAny(rest, " \t") {
		return "", nil, 0, fmt.Errorf("line %d: trailing content after value in %q (timestamps unsupported)", line, text)
	}
	value, err = parseFloatValue(rest)
	if err != nil {
		return "", nil, 0, fmt.Errorf("line %d: bad value %q: %v", line, rest, err)
	}
	return name, labels, value, nil
}

func parseFloatValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// ---------------------------------------------------------------------
// Exposition merging (fleet scrapes)

// Exposition is one scraped Prometheus text exposition tagged with the
// label value identifying its source (an agent's control address).
type Exposition struct {
	Label string
	Text  string
}

// expoSample is one sample line: the full sample name (histogram
// suffixes included), its labels, value and line number.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// expoFamily is one metric family: its declared type and help text and
// its samples in input order.
type expoFamily struct {
	name, typ, help string
	helped          bool
	samples         []expoSample
}

// parseExposition is the one reader of the text format. It parses text
// retaining structure — families in declaration order, samples in input
// order — and checks comment syntax, TYPE-before-samples ordering,
// metric/label name grammar, label-value escaping and float sample
// values, and that every sample belongs to its declared family (a
// histogram's samples are its _bucket, with an le label, _sum and
// _count). ValidatePrometheus adds the histogram consistency checks;
// MergeExpositions reads its inputs through it.
func parseExposition(text string) (map[string]*expoFamily, []string, error) {
	fams := make(map[string]*expoFamily)
	var order []string
	family := func(name string) *expoFamily {
		f := fams[name]
		if f == nil {
			f = &expoFamily{name: name}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Text()
		if strings.TrimSpace(raw) == "" {
			continue
		}
		if strings.HasPrefix(raw, "#") {
			if err := parseComment(raw, line, family); err != nil {
				return nil, nil, err
			}
			continue
		}
		name, labels, value, err := parseSample(raw, line)
		if err != nil {
			return nil, nil, err
		}
		fam := familyOf(name, fams)
		f := fams[fam]
		if f == nil || f.typ == "" {
			return nil, nil, fmt.Errorf("line %d: sample %s without a # TYPE for %s", line, name, fam)
		}
		if f.typ == "histogram" {
			switch name {
			case fam + "_bucket":
				if _, hasLE := labels["le"]; !hasLE {
					return nil, nil, fmt.Errorf("line %d: %s_bucket without le label", line, fam)
				}
			case fam + "_sum", fam + "_count":
			default:
				return nil, nil, fmt.Errorf("line %d: sample %s not a _bucket/_sum/_count of histogram %s", line, name, fam)
			}
		} else if name != fam {
			return nil, nil, fmt.Errorf("line %d: sample %s does not match declared family %s", line, name, fam)
		}
		f.samples = append(f.samples, expoSample{name: name, labels: labels, value: value, line: line})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return fams, order, nil
}

// MergeExpositions merges several scraped expositions into one, tagging
// every series from source i with labelName="sources[i].Label" — the
// fleet-scrape renderer behind `choreo agents metrics`. Families
// declared by more than one source must agree on type (the help string
// is taken from the first source that has one). The merged output is
// valid text exposition: one HELP/TYPE per family, families sorted by
// name, per-source series grouped in source order so each source's
// histogram buckets stay contiguous and cumulative.
func MergeExpositions(labelName string, sources []Exposition) (string, error) {
	if !labelNameRe.MatchString(labelName) {
		return "", fmt.Errorf("obs: invalid merge label name %q", labelName)
	}
	type tagged struct {
		source string
		s      expoSample
	}
	merged := make(map[string]*expoFamily)
	samples := make(map[string][]tagged)
	var order []string
	for _, src := range sources {
		fams, famOrder, err := parseExposition(src.Text)
		if err != nil {
			return "", fmt.Errorf("exposition from %s: %w", src.Label, err)
		}
		for _, name := range famOrder {
			f := fams[name]
			m := merged[name]
			if m == nil {
				merged[name] = &expoFamily{name: name, typ: f.typ, help: f.help}
				order = append(order, name)
			} else {
				if m.typ != f.typ {
					return "", fmt.Errorf("family %s declared %s by %s, %s elsewhere", name, f.typ, src.Label, m.typ)
				}
				if m.help == "" {
					m.help = f.help
				}
			}
			for _, s := range f.samples {
				if _, clash := s.labels[labelName]; clash {
					return "", fmt.Errorf("exposition from %s: sample %s already carries label %q", src.Label, s.name, labelName)
				}
				samples[name] = append(samples[name], tagged{source: src.Label, s: s})
			}
		}
	}
	sort.Strings(order)
	var b strings.Builder
	for _, name := range order {
		f := merged[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, tg := range samples[name] {
			names := make([]string, 0, len(tg.s.labels)+1)
			names = append(names, labelName)
			le, hasLE := "", false
			for k := range tg.s.labels {
				if k == "le" {
					le, hasLE = tg.s.labels[k], true
					continue
				}
				names = append(names, k)
			}
			sort.Strings(names[1:])
			values := make([]string, len(names))
			values[0] = tg.source
			for i, n := range names[1:] {
				values[i+1] = tg.s.labels[n]
			}
			extraName, extraValue := "", ""
			if hasLE {
				extraName, extraValue = "le", le
			}
			fmt.Fprintf(&b, "%s%s %s\n", tg.s.name,
				labelString(names, values, extraName, extraValue), formatFloat(tg.s.value))
		}
	}
	return b.String(), nil
}

// histLabelKey builds a canonical key from labels excluding le, plus
// the le value itself.
func histLabelKey(labels map[string]string) (key, le string, hasLE bool) {
	names := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			le = labels[k]
			hasLE = true
			continue
		}
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + `="` + labels[n] + `"`
	}
	return strings.Join(parts, ","), le, hasLE
}
