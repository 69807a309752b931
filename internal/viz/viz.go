// Package viz renders small ASCII visualizations for the examples and
// CLI output: sparklines of value series, horizontal bar charts of
// histograms, ring diagrams of search paths, and the telemetry panel.
// Pure text, no terminal-control sequences, safe to pipe into files.
package viz

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mathx"
	"repro/internal/metric"
)

// sparkLevels are the eighth-block glyphs, lowest to highest.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a compact unicode strip, scaling to the
// observed min/max. Empty input yields an empty string.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		b.WriteRune(sparkLevel(v, lo, hi))
	}
	return b.String()
}

// sparkLevel picks v's glyph on the [lo, hi] scale; a flat scale
// (hi <= lo) is the floor glyph.
func sparkLevel(v, lo, hi float64) rune {
	idx := 0
	if hi > lo {
		idx = int((v - lo) / (hi - lo) * float64(len(sparkLevels)-1))
	}
	return sparkLevels[max(0, min(idx, len(sparkLevels)-1))]
}

// Bars renders label/value pairs as a horizontal bar chart of at most
// `width` characters per bar, scaled to the maximum value.
func Bars(labels []string, values []float64, width int) string {
	if len(labels) != len(values) || len(labels) == 0 {
		return ""
	}
	if width < 1 {
		width = 40
	}
	var max float64
	labelWidth := 0
	for i, v := range values {
		if v > max {
			max = v
		}
		if len(labels[i]) > labelWidth {
			labelWidth = len(labels[i])
		}
	}
	var b strings.Builder
	for i, v := range values {
		n := 0
		if max > 0 {
			n = int(math.Round(v / max * float64(width)))
		}
		fmt.Fprintf(&b, "%-*s %s %v\n", labelWidth, labels[i], strings.Repeat("█", n), v)
	}
	return b.String()
}

// HistogramBars renders the first `buckets` non-empty buckets of a
// histogram as bars of probability mass.
func HistogramBars(h *mathx.Histogram, buckets, width int) string {
	if h == nil || buckets < 1 {
		return ""
	}
	var labels []string
	var values []float64
	for i := 0; i < h.Buckets() && len(labels) < buckets; i++ {
		if h.Count(i) == 0 {
			continue
		}
		labels = append(labels, h.BucketLabel(i))
		values = append(values, h.Probability(i))
	}
	return Bars(labels, values, width)
}

// Timeline renders a panel of aligned sparkline rows over a shared
// virtual-time axis — one row per series, each scaled to its own
// min/max (annotated in the right margin) — the rendering behind the
// telemetry window panel (telemetry.Recorder.PanelSeries). Series
// longer than width are downsampled by taking each bucket's maximum,
// which keeps spikes visible; NaN cells render as blanks and never
// contribute to a row's scale. Empty input, zero-length series, or
// mismatched label/series or series/series lengths yield "".
func Timeline(labels []string, series [][]float64, width int) string {
	if len(labels) == 0 || len(labels) != len(series) {
		return ""
	}
	n := len(series[0])
	if n == 0 {
		return ""
	}
	for _, s := range series {
		if len(s) != n {
			return ""
		}
	}
	if width < 8 {
		width = 64
	}
	labelWidth := 0
	for _, l := range labels {
		if len(l) > labelWidth {
			labelWidth = len(l)
		}
	}
	var b strings.Builder
	for i, s := range series {
		row := downsampleMax(s, width)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range row {
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		var spark strings.Builder
		for _, v := range row {
			if math.IsNaN(v) {
				spark.WriteByte(' ')
				continue
			}
			spark.WriteRune(sparkLevel(v, lo, hi))
		}
		if hi < lo {
			// Every cell was NaN: no scale to annotate.
			fmt.Fprintf(&b, "%-*s %s\n", labelWidth, labels[i], spark.String())
			continue
		}
		fmt.Fprintf(&b, "%-*s %s  [%.4g, %.4g]\n", labelWidth, labels[i], spark.String(), lo, hi)
	}
	return b.String()
}

// downsampleMax shrinks s to at most width cells, each the maximum of
// its contiguous source bucket (NaN entries ignored; an all-NaN bucket
// stays NaN so Timeline renders it blank).
func downsampleMax(s []float64, width int) []float64 {
	if len(s) <= width {
		return s
	}
	out := make([]float64, width)
	for i := range out {
		lo := i * len(s) / width
		hi := (i + 1) * len(s) / width
		best, any := 0.0, false
		for _, v := range s[lo:hi] {
			if math.IsNaN(v) {
				continue
			}
			if !any || v > best {
				best, any = v, true
			}
		}
		if !any {
			out[i] = math.NaN()
			continue
		}
		out[i] = best
	}
	return out
}

// RingPath draws a search path over a ring of n points as a fixed-width
// strip: '·' for untouched regions, '*' for intermediate hops, 'S' for
// the source and 'T' for the target (overriding hops at the same cell).
func RingPath(n int, path []metric.Point, width int) string {
	if n < 1 || width < 3 || len(path) == 0 {
		return ""
	}
	cells := make([]rune, width)
	for i := range cells {
		cells[i] = '·'
	}
	cell := func(p metric.Point) int {
		c := int(p) * width / n
		if c >= width {
			c = width - 1
		}
		return c
	}
	if len(path) > 2 {
		for _, p := range path[1 : len(path)-1] {
			cells[cell(p)] = '*'
		}
	}
	cells[cell(path[0])] = 'S'
	if len(path) > 1 {
		cells[cell(path[len(path)-1])] = 'T'
	}
	return string(cells)
}
