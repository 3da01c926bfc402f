// Package prom writes the Prometheus text exposition format: the HELP
// and TYPE lines that open a metric family, samples with escaped label
// values, and a histo.Hist rendered as a histogram or a summary in
// seconds. A run's simulated counters (perfcount) and the job server's
// /metrics registry both render through it.
package prom

import (
	"io"
	"strconv"
	"strings"

	"nustencil/internal/histo"
)

// Writer writes one exposition to an io.Writer. The first write error
// sticks: later calls write nothing and Err returns it.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, or nil.
func (p *Writer) Err() error { return p.err }

func (p *Writer) write(s string) {
	if p.err == nil {
		_, p.err = io.WriteString(p.w, s)
	}
}

// Family writes the HELP and TYPE lines that open metric family name;
// typ is "gauge", "counter", "histogram" or "summary".
func (p *Writer) Family(name, typ, help string) {
	p.write("# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n")
}

// Int writes one sample with an integer value. labels alternate label
// names and values: "node", "0", "worker", "3".
func (p *Writer) Int(name string, v int64, labels ...string) {
	p.sample(name, strconv.FormatInt(v, 10), labels)
}

// Float writes one sample with a float value, formatted as by G.
func (p *Writer) Float(name string, v float64, labels ...string) {
	p.sample(name, G(v), labels)
}

func (p *Writer) sample(name, value string, labels []string) {
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i := 0; i < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(labels[i])
			b.WriteString(`="`)
			b.WriteString(escape(labels[i+1]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
	p.write(b.String())
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escape makes v a legal label value: invalid UTF-8 becomes U+FFFD, and
// backslash, double quote and newline — the only escapes the format
// defines — are escaped. Every other byte passes through raw.
func escape(v string) string {
	return labelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD"))
}

// G formats v in the shortest %g form, for sample values and for label
// values that carry numbers (le, quantile).
func G(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Histogram writes h as a histogram family in seconds: a cumulative le
// bucket at the upper bound of every non-empty log₂ bucket, then +Inf,
// _sum and _count.
func (p *Writer) Histogram(name, help string, h *histo.Hist) {
	p.Family(name, "histogram", help)
	var cum int64
	for b, n := range h.Counts {
		cum += n
		if n == 0 {
			continue
		}
		_, hi := histo.BucketBounds(b)
		p.Int(name+"_bucket", cum, "le", G(hi.Seconds()))
	}
	p.Int(name+"_bucket", h.N, "le", "+Inf")
	p.Float(name+"_sum", h.Sum.Seconds())
	p.Int(name+"_count", h.N)
}

// Summary writes h as a summary family in seconds: one sample per
// quantile (at the log₂ resolution histo.Hist.Quantile promises), then
// _sum and _count.
func (p *Writer) Summary(name, help string, h *histo.Hist, quantiles ...float64) {
	p.Family(name, "summary", help)
	for _, q := range quantiles {
		p.Float(name, h.Quantile(q).Seconds(), "quantile", G(q))
	}
	p.Float(name+"_sum", h.Sum.Seconds())
	p.Int(name+"_count", h.N)
}
