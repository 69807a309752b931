package overlay

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/transport"
)

// FuzzHandleRequest feeds arbitrary bytes to the node's request handler:
// it must reject garbage with an error, never panic, and always produce
// a decodable response for valid requests.
func FuzzHandleRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"op":"ping"}`),
		[]byte(`{"op":"nearest","target":12}`),
		[]byte(`{"op":"get","key":"k"}`),
		[]byte(`{"op":"put","key":"k","value":"v"}`),
		[]byte(`{"op":"neighbor-info"}`),
		[]byte(`{"op":"solicit","from":3}`),
		[]byte(`{"op":"new-neighbor","from":5}`),
		[]byte(`{"op":"nearest","target":12,"exclude":[8,6,40]}`),
		[]byte(`{"op":"nearest","target":64}`),         // one past the ring
		[]byte(`{"op":"ping","from":-1}`),              // sender off the ring
		[]byte(`{"op":"forward","target":1,"ttl":-5}`), // removed op: unknown now
		[]byte(`{"op":"unknown-op"}`),
		[]byte(`{`),
		[]byte(``),
		[]byte(`null`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	tr := transport.NewInMem(99)
	ring, err := metric.NewRing(64)
	if err != nil {
		f.Fatal(err)
	}
	n, err := NewNode(7, Config{Ring: ring, Links: 2, Seed: 1}, tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(n.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := n.handle(data)
		if err != nil {
			return // rejected, fine
		}
		if _, err := decodeResponse(resp); err != nil {
			t.Fatalf("handler emitted undecodable response %q for input %q", resp, data)
		}
	})
}

// FuzzDecodeRequest: arbitrary bytes never panic the decoder.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"op":"ping","from":1}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte{0xff, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeRequest(data)
	})
}
