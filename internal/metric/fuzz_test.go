package metric

import "testing"

// FuzzTorusStepOffset: for every reachable torus geometry, Offset must
// round-trip (delta forward then delta backward lands home), Step must
// agree with Offset-by-1, invalid axes must be rejected, and the
// distance of a single-axis move must equal the wrapped per-axis
// distance exactly; and the distance to an arbitrary second point must
// equal the per-axis coordinate formula (Distance decodes packed points
// with 32-bit arithmetic of its own). These are the grid-walk contracts
// the routing and construction layers lean on at every hop.
func FuzzTorusStepOffset(f *testing.F) {
	f.Add(8, 2, 5, 1, 3)
	f.Add(32, 1, 0, -1, 100)
	f.Add(5, 3, 124, 3, -7)
	f.Add(1, 1, 0, 1, 1)
	f.Add(16, 2, 255, -2, 0)
	f.Add(4, 4, 17, 5, 2)                   // axis out of range
	f.Add(127, 4, 127*127*127*127-1, 4, 64) // last point of a large odd 4-D torus
	f.Add(128, 4, 1<<27, -1, 1<<19)         // 2^28 points: high bits of the 32-bit decode
	f.Fuzz(func(t *testing.T, side, dim, point, dir, delta int) {
		// Clamp the geometry to the practical range (NewTorus rejects
		// the rest anyway) and the walk length to avoid signed-overflow
		// territory that says nothing about the torus.
		side = 1 + abs(side)%128
		dim = 1 + abs(dim)%4
		delta %= 1 << 20
		tor, err := NewTorus(side, dim)
		if err != nil {
			t.Skip()
		}
		p := Point(abs(point) % tor.Size())
		if !tor.Contains(p) {
			t.Fatalf("clamped point %d outside torus of size %d", p, tor.Size())
		}

		q, ok := tor.Offset(p, dir, delta)
		axis := abs(dir)
		if axis < 1 || axis > dim {
			if ok {
				t.Fatalf("Offset accepted invalid axis %d on dim %d", dir, dim)
			}
			return
		}
		if !ok {
			t.Fatalf("Offset(%d, %d, %d) failed on a wrapping torus", p, dir, delta)
		}
		if !tor.Contains(q) {
			t.Fatalf("Offset(%d, %d, %d) left the space: %d", p, dir, delta, q)
		}
		back, ok := tor.Offset(q, dir, -delta)
		if !ok || back != p {
			t.Fatalf("Offset round-trip %d -> %d -> %d (ok=%v)", p, q, back, ok)
		}

		// A single-axis move of delta steps sits at exactly the wrapped
		// axis distance, and distance is symmetric.
		want := abs(delta) % side
		if alt := side - want; alt < want {
			want = alt
		}
		if d := tor.Distance(p, q); d != want {
			t.Fatalf("Distance(%d, %d) = %d after %d steps on side %d, want %d", p, q, d, delta, side, want)
		}
		if tor.Distance(p, q) != tor.Distance(q, p) {
			t.Fatalf("Distance not symmetric between %d and %d", p, q)
		}
		far := Point((abs(point) ^ abs(delta)*2654435761) % tor.Size())
		if got, want := tor.Distance(p, far), coordDistance(tor, p, far); got != want {
			t.Fatalf("side %d dim %d: Distance(%d, %d) = %d, per-axis formula = %d", side, dim, p, far, got, want)
		}

		// Step is Offset by one, and reverses with the opposite dir.
		s, ok := tor.Step(p, dir)
		if !ok {
			t.Fatalf("Step(%d, %d) failed on a wrapping torus", p, dir)
		}
		if o, _ := tor.Offset(p, dir, 1); o != s {
			t.Fatalf("Step(%d, %d) = %d but Offset-by-1 = %d", p, dir, s, o)
		}
		backStep, ok := tor.Step(s, -dir)
		if !ok || backStep != p {
			t.Fatalf("Step round-trip %d -> %d -> %d (ok=%v)", p, s, backStep, ok)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		// Avoid the lone overflowing negation.
		if v == -v {
			return 0
		}
		return -v
	}
	return v
}
