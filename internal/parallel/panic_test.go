package parallel

import (
	"errors"
	"strings"
	"testing"
)

// TestStreamPanicPrefixIntact: everything emitted before the failing index
// is still the exact serial prefix.
func TestStreamPanicPrefixIntact(t *testing.T) {
	var got []int
	err := Stream(64,
		func(i int) (int, error) {
			if i == 10 {
				panic("stream boom")
			}
			return i * i, nil
		},
		func(i, v int) error {
			got = append(got, v)
			return nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 10 {
		t.Fatalf("err = %v, want *PanicError at index 10", err)
	}
	if pe.Value != "stream boom" || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("panic value %v or stack not captured: %q", pe.Value, pe.Stack)
	}
	if len(got) > 10 {
		t.Fatalf("emitted %d results past the panicking index", len(got)-10)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("emitted prefix corrupted at %d: %d", i, v)
		}
	}
}

// TestStreamEmitPanicBecomesError: a panic inside the emission callback is
// contained like an emit error.
func TestStreamEmitPanicBecomesError(t *testing.T) {
	err := Stream(8,
		func(i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 3 {
				panic("emit boom")
			}
			return nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Fatalf("err = %v, want *PanicError at index 3", err)
	}
}

// TestPanicErrorUnwrap: a panic whose value already is an error stays
// matchable with errors.Is through the wrapper.
func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("invariant violated")
	err := Stream(1,
		func(i int) (int, error) { panic(sentinel) },
		func(int, int) error { return nil })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v does not unwrap to the panic value", err)
	}
	var pe *PanicError
	errors.As(err, &pe)
	if (&PanicError{Value: "plain"}).Unwrap() != nil {
		t.Fatal("non-error panic value must unwrap to nil")
	}
}
