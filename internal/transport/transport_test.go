package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func echoHandler(req []byte) ([]byte, error) { return req, nil }

func testTransportBasics(t *testing.T, tr Transport) {
	t.Helper()
	closer, err := tr.Listen(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()

	ctx := context.Background()
	resp, err := tr.Call(ctx, 1, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hello" {
		t.Errorf("echo = %q", resp)
	}
	if _, err := tr.Call(ctx, 99, []byte("x")); !errors.Is(err, ErrUnreachable) {
		t.Errorf("unknown node err = %v, want ErrUnreachable", err)
	}
	if _, err := tr.Listen(1, echoHandler); err == nil {
		t.Error("double listen should error")
	}
	if _, err := tr.Listen(2, nil); err == nil {
		t.Error("nil handler should error")
	}
}

func TestInMemBasics(t *testing.T) { testTransportBasics(t, NewInMem(1)) }
func TestTCPBasics(t *testing.T)   { testTransportBasics(t, NewTCP()) }

func TestInMemCloseUnregisters(t *testing.T) {
	tr := NewInMem(2)
	closer, err := tr.Listen(7, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	closer()
	if _, err := tr.Call(context.Background(), 7, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("closed node err = %v", err)
	}
	// Re-listen after close must succeed.
	closer, err = tr.Listen(7, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	closer()
}

func TestInMemCallHonoursContext(t *testing.T) {
	tr := NewInMem(5)
	closer, err := tr.Listen(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Call(ctx, 1, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("call on a cancelled context err = %v, want context.Canceled", err)
	}
	if _, err := tr.Call(context.Background(), 1, nil); err != nil {
		t.Errorf("live context call failed: %v", err)
	}
}

func TestInMemConcurrentCalls(t *testing.T) {
	tr := NewInMem(6)
	closer, err := tr.Listen(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("m%d", i))
			resp, err := tr.Call(context.Background(), 1, msg)
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != string(msg) {
				errs <- fmt.Errorf("got %q want %q", resp, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPHandlerError(t *testing.T) {
	tr := NewTCP()
	closer, err := tr.Listen(1, func(req []byte) ([]byte, error) {
		return nil, errors.New("handler boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	_, err = tr.Call(context.Background(), 1, []byte("x"))
	if err == nil {
		t.Fatal("want remote error")
	}
	if want := "handler boom"; !strings.Contains(err.Error(), want) {
		t.Errorf("err %q should mention %q", err, want)
	}
}

func TestTCPCloseStopsServing(t *testing.T) {
	tr := NewTCP()
	closer, err := tr.Listen(3, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Addr(3); !ok {
		t.Error("Addr should be registered while listening")
	}
	closer()
	if _, ok := tr.Addr(3); ok {
		t.Error("Addr should be gone after close")
	}
	if _, err := tr.Call(context.Background(), 3, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call after close err = %v", err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	tr := NewTCP()
	closer, err := tr.Listen(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	big := make([]byte, 1<<18) // 256 KiB
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := tr.Call(context.Background(), 1, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(big) {
		t.Errorf("len = %d, want %d", len(resp), len(big))
	}
	for i := range resp {
		if resp[i] != big[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestTCPConcurrentNodes(t *testing.T) {
	tr := NewTCP()
	const nodes = 8
	closers := make([]func(), 0, nodes)
	for i := 0; i < nodes; i++ {
		id := NodeID(i)
		closer, err := tr.Listen(id, func(req []byte) ([]byte, error) {
			return []byte(fmt.Sprintf("node-%d", id)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		closers = append(closers, closer)
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, nodes*4)
	for i := 0; i < nodes*4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			to := NodeID(i % nodes)
			resp, err := tr.Call(context.Background(), to, nil)
			if err != nil {
				errs <- err
				return
			}
			if want := fmt.Sprintf("node-%d", to); string(resp) != want {
				errs <- fmt.Errorf("got %q want %q", resp, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
