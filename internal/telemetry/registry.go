package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"edr/internal/metrics"
)

// Labels name one time series within a metric family. Values are
// escaped at render time; keys must be valid Prometheus label names.
type Labels map[string]string

// Registry holds named metric families — counters, gauges, histograms —
// and renders them in the Prometheus text exposition format (version
// 0.0.4, the format every Prometheus scraper accepts).
//
// Counter and Histogram are get-or-create: calling them again with the
// same name and labels returns the same underlying instrument, so
// event-driven collectors can mint per-peer series lazily. Families
// render in registration order; series within a family in label order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name, help, typ string

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

type series struct {
	labels  string // pre-rendered {k="v",...} or ""
	counter *metrics.Counter
	gauge   func() float64
	hist    *metrics.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family returns the named family, creating it with the given type on
// first use. Re-registering a name with a different type panics — that
// is a programming error, not a runtime condition.
func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// get-or-create one series within f. make runs under f's lock.
func (f *family) get(labels Labels, make func() *series) *series {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	s.labels = key
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter returns the counter series for name+labels, creating family
// and series as needed.
func (r *Registry) Counter(name, help string, labels Labels) *metrics.Counter {
	f := r.family(name, help, "counter")
	s := f.get(labels, func() *series { return &series{counter: &metrics.Counter{}} })
	return s.counter
}

// Gauge registers a callback gauge for name+labels. The callback is
// invoked at render time; re-registering the same series replaces the
// callback.
func (r *Registry) Gauge(name, help string, labels Labels, fn func() float64) {
	r.callback(name, help, "gauge", labels, fn)
}

// CounterFunc registers a callback counter — a monotone count that is
// kept elsewhere and only read at render time. Otherwise as Gauge.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.callback(name, help, "counter", labels, fn)
}

func (r *Registry) callback(name, help, typ string, labels Labels, fn func() float64) {
	f := r.family(name, help, typ)
	s := f.get(labels, func() *series { return &series{} })
	f.mu.Lock()
	s.gauge = fn
	f.mu.Unlock()
}

// Histogram returns the histogram series for name+labels, creating it
// with the given bucket bounds on first use.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *metrics.Histogram {
	f := r.family(name, help, "histogram")
	s := f.get(labels, func() *series { return &series{hist: metrics.NewHistogram(bounds)} })
	return s.hist
}

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	snap := make([]*series, len(order))
	for i, key := range order {
		snap[i] = f.series[key]
	}
	f.mu.Unlock()
	if len(snap) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
	for _, s := range snap {
		switch {
		case s.counter != nil:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
		case s.gauge != nil:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge()))
		case s.hist != nil:
			writeHistogram(&b, f.name, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders the _bucket/_sum/_count triplet, merging the
// series labels with the per-bucket le label.
func writeHistogram(b *strings.Builder, name string, s *series) {
	snap := s.hist.Snapshot()
	for i, bound := range snap.Bounds {
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabel(s.labels, "le", formatFloat(bound)), snap.Cumulative[i])
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabel(s.labels, "le", "+Inf"), snap.Cumulative[len(snap.Cumulative)-1])
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(snap.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, snap.Count)
}

// renderLabels builds the canonical {k="v",...} suffix, keys sorted.
// Empty labels render as "".
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel inserts one extra label pair into a pre-rendered label set.
func mergeLabel(rendered, key, value string) string {
	extra := key + `="` + escapeLabel(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation; +Inf/-Inf/NaN spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
