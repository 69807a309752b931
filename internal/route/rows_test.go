package route

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// A walker scores the graph's cached neighbour row where one is fresh
// and the gather where none is; the two are one sequence, so every walk
// must be the same either way: the same Result — delivery, hops,
// reroutes, backtracks, target and traced path — for every dead-end
// policy, two-sided, directed and (on the 1-D spaces) one-sided, toward
// single targets and replica sets, on healthy networks and with 30 % of
// the nodes failed. The cached walks step on several goroutines at
// once, as shards and snapshot workers step them.
func TestWalkerRowsMatchGather(t *testing.T) {
	const searches, goroutines = 200, 4
	for _, space := range shareSpaces(t) {
		for _, failFrac := range []float64{0, 0.3} {
			g := shareGraph(t, space, failFrac, 5)
			var alive []metric.Point
			for p := 0; p < g.Size(); p++ {
				if g.Alive(metric.Point(p)) {
					alive = append(alive, metric.Point(p))
				}
			}
			src := rng.New(6)
			from := make([]metric.Point, searches)
			sets := make([][]metric.Point, searches)
			for i := range from {
				from[i] = alive[src.Intn(len(alive))]
				sets[i] = []metric.Point{alive[src.Intn(len(alive))]}
				if i%4 == 3 {
					sets[i] = distinctPoints(src, g.Size(), 4)
				}
			}
			var opts []Options
			for _, policy := range []DeadEndPolicy{Terminate, RandomReroute, Backtrack} {
				opts = append(opts,
					Options{DeadEnd: policy, TracePath: true},
					Options{DeadEnd: policy, TracePath: true, DirectedOnly: true})
				if space.Dim() == 1 {
					opts = append(opts, Options{DeadEnd: policy, TracePath: true, Sidedness: OneSided})
				}
			}
			walk := func(opt Options) []Result {
				r := New(g, opt)
				out := make([]Result, searches)
				var wg sync.WaitGroup
				for k := 0; k < goroutines; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						for i := k; i < searches; i += goroutines {
							if opt.Sidedness == OneSided && len(sets[i]) > 1 {
								continue // one-sided routing takes a single target
							}
							res, err := r.RouteAny(rng.New(uint64(i)), from[i], sets[i])
							if err != nil {
								t.Error(err)
							}
							out[i] = res
						}
					}(k)
				}
				wg.Wait()
				return out
			}
			gathered := make([][]Result, len(opts))
			for k, opt := range opts {
				gathered[k] = walk(opt)
			}
			g.RefreshRows()
			if _, cached := g.Row(nil, alive[0], true); !cached {
				t.Fatal("RefreshRows left the rows unbuilt: the test compares the gather with itself")
			}
			for k, opt := range opts {
				name := fmt.Sprintf("%s/fail=%g/%+v", space.Name(), failFrac, opt)
				for i, got := range walk(opt) {
					if want := gathered[k][i]; !reflect.DeepEqual(got, want) {
						t.Fatalf("%s search %d: %+v from the rows, %+v from the gather", name, i, got, want)
					}
				}
			}
		}
	}
}
