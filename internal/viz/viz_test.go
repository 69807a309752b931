package viz

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/metric"
)

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty input should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("length = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("extremes wrong: %q", s)
	}
	// Constant series stays at the floor glyph.
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat series rendered %q", string(flat))
		}
	}
}

func TestBars(t *testing.T) {
	if Bars([]string{"a"}, []float64{1, 2}, 10) != "" {
		t.Error("mismatched lengths should render empty")
	}
	out := Bars([]string{"one", "two"}, []float64{1, 2}, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "one") || !strings.Contains(lines[1], "██") {
		t.Errorf("bars output:\n%s", out)
	}
	// The max bar should be ~twice the min bar.
	c1 := strings.Count(lines[0], "█")
	c2 := strings.Count(lines[1], "█")
	if c2 != 2*c1 {
		t.Errorf("bar scaling wrong: %d vs %d", c1, c2)
	}
	if Bars([]string{"z"}, []float64{3}, 0) == "" {
		t.Error("zero width should fall back to default")
	}
}

func TestHistogramBars(t *testing.T) {
	h := mathx.NewLogHistogram(64)
	for v := 1; v <= 64; v++ {
		h.Add(v)
	}
	out := HistogramBars(h, 3, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 buckets, got %d:\n%s", len(lines), out)
	}
	if HistogramBars(nil, 3, 20) != "" || HistogramBars(h, 0, 20) != "" {
		t.Error("degenerate inputs should render empty")
	}
}

func TestRingPath(t *testing.T) {
	if RingPath(0, nil, 10) != "" || RingPath(10, nil, 10) != "" || RingPath(10, []metric.Point{1}, 2) != "" {
		t.Error("degenerate inputs should render empty")
	}
	out := RingPath(100, []metric.Point{10, 50, 90}, 50)
	if len([]rune(out)) != 50 {
		t.Fatalf("width = %d", len([]rune(out)))
	}
	if !strings.Contains(out, "S") || !strings.Contains(out, "T") || !strings.Contains(out, "*") {
		t.Errorf("markers missing: %q", out)
	}
	// Single-point path renders just the source marker.
	solo := RingPath(100, []metric.Point{42}, 50)
	if strings.Count(solo, "S") != 1 || strings.Contains(solo, "T") {
		t.Errorf("solo path: %q", solo)
	}
	// Two-point path: S and T, no intermediate.
	pair := RingPath(100, []metric.Point{5, 95}, 50)
	if !strings.Contains(pair, "S") || !strings.Contains(pair, "T") || strings.Contains(pair, "*") {
		t.Errorf("pair path: %q", pair)
	}
}

func TestTimeline(t *testing.T) {
	if Timeline(nil, nil, 40) != "" {
		t.Error("empty input should render empty")
	}
	if Timeline([]string{"a"}, [][]float64{{1}, {2}}, 40) != "" {
		t.Error("mismatched label/series counts should render empty")
	}
	if Timeline([]string{"a", "b"}, [][]float64{{1, 2}, {1}}, 40) != "" {
		t.Error("ragged series should render empty")
	}
	if Timeline([]string{"a"}, [][]float64{{}}, 40) != "" {
		t.Error("zero-length series should render empty")
	}
	// A single point renders one flat cell without dividing by zero.
	one := Timeline([]string{"solo"}, [][]float64{{5}}, 40)
	if one == "" || !strings.Contains(one, "solo") || !strings.Contains(one, "[5, 5]") {
		t.Errorf("single-point panel off:\n%q", one)
	}
	labels := []string{"in-flight", "inject"}
	series := [][]float64{
		{0, 1, 2, 4, 8, 4, 2, 1},
		{1, 1, 1, 1, 1, 1, 1, 1},
	}
	out := Timeline(labels, series, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d rows, want 2:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "in-flight") || !strings.HasPrefix(lines[1], "inject") {
		t.Errorf("labels off:\n%s", out)
	}
	if !strings.Contains(lines[0], "[0, 8]") || !strings.Contains(lines[1], "[1, 1]") {
		t.Errorf("min/max annotations off:\n%s", out)
	}
	// Each row scales independently: the flat row stays flat.
	if strings.Contains(lines[1], "█") && strings.Contains(lines[1], "▁") {
		t.Errorf("flat series should render one level:\n%s", out)
	}
}

func TestTimelineNaNAndDownsample(t *testing.T) {
	nan := math.NaN()
	out := Timeline([]string{"gaps"}, [][]float64{{1, nan, 3, nan}}, 40)
	if out == "" || !strings.Contains(out, "[1, 3]") {
		t.Fatalf("NaN cells should be skipped in scale:\n%q", out)
	}
	if !strings.Contains(out, " ") {
		t.Errorf("NaN cells should render blank:\n%q", out)
	}
	// An all-NaN series renders blanks and no scale annotation.
	blank := Timeline([]string{"void"}, [][]float64{{nan, nan}}, 40)
	if blank == "" || strings.Contains(blank, "[") {
		t.Errorf("all-NaN row should carry no annotation:\n%q", blank)
	}
	// Longer-than-width series downsample by bucket max: the lone spike
	// survives.
	long := make([]float64, 400)
	long[237] = 9
	ds := Timeline([]string{"spike"}, [][]float64{long}, 40)
	if !strings.Contains(ds, "█") || !strings.Contains(ds, "[0, 9]") {
		t.Errorf("downsample lost the spike:\n%q", ds)
	}
	row := strings.TrimRight(strings.SplitN(ds, "\n", 2)[0], "\n")
	if n := len([]rune(row)); n > len("spike")+1+40+len("  [0, 9]") {
		t.Errorf("row not downsampled to width: %d runes:\n%q", n, ds)
	}
}
