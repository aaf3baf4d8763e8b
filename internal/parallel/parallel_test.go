package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestStreamEmitsInIndexOrder is Stream's core contract: emission is the
// serial order whatever the completion order, run after run.
func TestStreamEmitsInIndexOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var emitted []int
		err := Stream(500, func(i int) (int, error) {
			return i * 3, nil
		}, func(i, v int) error {
			if v != i*3 {
				t.Fatalf("emit(%d) got %d", i, v)
			}
			emitted = append(emitted, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(emitted) != 500 {
			t.Fatalf("emitted %d results", len(emitted))
		}
		for i, v := range emitted {
			if v != i {
				t.Fatalf("emission order broken at %d: %v", i, emitted[:i+1])
			}
		}
	}
}

// TestStreamBoundedWindow checks workers never run more than the window
// ahead of the emission frontier — the O(window) memory guarantee.
func TestStreamBoundedWindow(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a second worker to advance past the stalled frontier")
	}
	const window = 4
	block := make(chan struct{})
	err := stream(64, window, func(i int) (int, error) {
		if i == 0 {
			<-block // stall the frontier; claims beyond the window must wait
		}
		if i >= window {
			select {
			case <-block:
			default:
				t.Errorf("trial %d claimed while frontier stalled at 0", i)
			}
		}
		if i == window-1 {
			close(block)
		}
		return i, nil
	}, func(i, v int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamErrorKeepsPrefix pins the resume property: on failure,
// everything emitted is exactly the contiguous prefix below the lowest
// failing index.
func TestStreamErrorKeepsPrefix(t *testing.T) {
	sentinel := errors.New("boom")
	for trial := 0; trial < 20; trial++ {
		var emitted []int
		err := Stream(64, func(i int) (int, error) {
			if i == 19 || i == 40 {
				return 0, fmt.Errorf("%w at %d", sentinel, i)
			}
			return i, nil
		}, func(i, v int) error {
			emitted = append(emitted, i)
			return nil
		})
		if !errors.Is(err, sentinel) || err.Error() != "boom at 19" {
			t.Fatalf("err = %v, want the lowest-index failure", err)
		}
		if len(emitted) > 19 {
			t.Fatalf("emitted past the failing index: %v", emitted)
		}
		for i, v := range emitted {
			if v != i {
				t.Fatalf("emitted prefix not contiguous: %v", emitted)
			}
		}
	}
}

// TestStreamEmitErrorStops: a sink failure aborts the stream and surfaces.
func TestStreamEmitErrorStops(t *testing.T) {
	sentinel := errors.New("sink full")
	count := 0
	err := Stream(100, func(i int) (int, error) { return i, nil },
		func(i, v int) error {
			count++
			if i == 10 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if count != 11 {
		t.Fatalf("emit called %d times, want 11", count)
	}
}
