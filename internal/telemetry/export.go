package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonlRun is the "run" line of the JSONL export.
type jsonlRun struct {
	Type     string  `json:"type"`
	Run      int     `json:"run"`
	Label    string  `json:"label,omitempty"`
	Capacity float64 `json:"capacity"`
	Window   float64 `json:"window"` // virtual-time length of one window
	Stride   int     `json:"stride"` // windows per exported bucket
	Messages int     `json:"messages"`
	Shards   int     `json:"shards,omitempty"`
	Windows  int     `json:"windows,omitempty"` // sharded loop windows
	WallSecs float64 `json:"wall_secs"`
}

// jsonlWindow is the "window" line: one timeseries bucket.
type jsonlWindow struct {
	Type        string  `json:"type"`
	Run         int     `json:"run"`
	Start       int     `json:"start"` // window index; ×window for time
	End         int     `json:"end"`
	InFlight    int     `json:"in_flight"`
	Injections  int     `json:"injections"`
	Completions int     `json:"completions"`
	Drops       int     `json:"drops"`
	Services    int     `json:"services"`
	DepthMax    int     `json:"depth_max"`
	DepthMean   float64 `json:"depth_mean"`
	Merges      int     `json:"merges"`
	Suppressed  int     `json:"suppressed"`
	Multicasts  int     `json:"multicasts"`
	PITExpiries int     `json:"pit_expiries"`
	CacheHits   int     `json:"cache_hits"`
	CachePromos int     `json:"cache_promotions"`
}

// jsonlFlight is the "flight" line: one of the worst-latency sampled
// messages, full hop trace included.
type jsonlFlight struct {
	Type string `json:"type"`
	Flight
}

func depthMean(c Counters) float64 {
	if c.DepthCount == 0 {
		return 0
	}
	return float64(c.DepthSum) / float64(c.DepthCount)
}

func windowLine(runIdx int, w Window) jsonlWindow {
	return jsonlWindow{
		Type: "window", Run: runIdx,
		Start: w.Start, End: w.End, InFlight: w.InFlight,
		Injections: w.Injections, Completions: w.Completions,
		Drops: w.Drops, Services: w.Services,
		DepthMax: w.DepthMax, DepthMean: depthMean(w.Counters),
		Merges: w.Merges, Suppressed: w.Suppressions,
		Multicasts: w.Multicasts, PITExpiries: w.PITExpiries,
		CacheHits: w.CacheHits, CachePromos: w.CachePromos,
	}
}

// WriteJSONL writes the full export: one "run" line per recorded run,
// its "window" timeseries lines, then the worstK (8) worst-latency
// "flight" lines across all runs. Every line is a standalone JSON
// object, so the stream greps and tails cleanly.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i, run := range r.runs {
		line := jsonlRun{
			Type: "run", Run: i, Label: run.Label,
			Capacity: run.Capacity, Window: run.WindowLen(),
			Stride: run.win.stride, Messages: run.Messages,
			WallSecs: run.WallSecs,
		}
		if run.sched.Shards > 0 {
			line.Shards = run.sched.Shards
			line.Windows = run.sched.Windows
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		for _, win := range run.Windows() {
			if err := enc.Encode(windowLine(i, win)); err != nil {
				return err
			}
		}
	}
	for _, f := range r.WorstFlights(worstK) {
		if err := enc.Encode(jsonlFlight{Type: "flight", Flight: f}); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the window timeseries of every run as one CSV table
// (flights don't tabulate — use the JSONL export for those).
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "run,start,end,in_flight,injections,completions,drops,services,depth_max,depth_mean,merges,suppressed,multicasts,pit_expiries,cache_hits,cache_promotions"); err != nil {
		return err
	}
	for i, run := range r.runs {
		for _, win := range run.Windows() {
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%d\n",
				i, win.Start, win.End, win.InFlight,
				win.Injections, win.Completions, win.Drops, win.Services,
				win.DepthMax, depthMean(win.Counters),
				win.Merges, win.Suppressions, win.Multicasts, win.PITExpiries,
				win.CacheHits, win.CachePromos); err != nil {
				return err
			}
		}
	}
	return nil
}
