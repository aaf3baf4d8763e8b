// Package parallel provides the deterministic worker pool every driver —
// the sweep, the search, the experiments and the lower-bound samplers —
// fans its independent seeded trials across.
//
// Every trial in this repository is a pure function of its index (the index
// picks the seed, and each trial builds its own sim.System — Systems are
// not safe for concurrent use but are never shared). That makes the trial
// loops embarrassingly parallel, with one requirement: results must be
// byte-identical to the serial loop, and a failure must be the error of the
// lowest-index failing trial — exactly the error a serial loop would have
// hit first.
//
// Stream is the one fan-out primitive: trial bodies run on the pool, and
// their results reach a single consumer in strictly increasing index order
// through a fixed-size reorder window. The consumer — a sink, or a plain
// closure folding into local accumulators — therefore sees exactly what the
// serial loop would have handed it, so the aggregate is the serial loop's
// with nothing to merge, and a battery's footprint is its accumulators, not
// its result set (DESIGN.md §4).
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is a panic recovered from a worker body, converted into an
// ordinary error so one panicking trial cannot take down the whole pool
// (and, on parallel runs, every sibling worker's in-flight results). It
// records the panicking index, the panic value, and the stack captured at
// recovery — the raw material the registry layer turns into a structured
// quarantine record.
type PanicError struct {
	// Index is the work index whose function panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic at index %d: %v", e.Index, e.Value)
}

// Unwrap exposes a panic value that already was an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// guard wraps fn so a panic inside fn(i) is returned as a *PanicError
// instead of unwinding the worker goroutine. Stream runs its work function
// through this wrapper on the serial fallback too, so the error surface does
// not depend on GOMAXPROCS.
func guard[T any](fn func(int) (T, error)) func(int) (T, error) {
	return func(i int) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				v, err = zero, &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i)
	}
}

// Stream runs fn(i) for every i in [0, n) across up to GOMAXPROCS workers
// and delivers every result to emit in strictly increasing index order —
// for consumers (aggregators, sinks) that must observe results in serial
// order without holding them all. A reorder window scaled to the worker
// count bounds the results in flight: workers stall rather than run further
// ahead of the emission frontier, so peak buffered memory is O(workers),
// independent of n. emit is never called concurrently.
//
// On failure — whether a trial's error or emit's — Stream stops claiming
// new indices, lets in-flight trials finish, and returns the error of the
// lowest failing index (for trial errors, exactly the error a serial loop
// would have hit first). Results are emitted contiguously from index 0, so
// everything emitted before a failure is the exact prefix a serial loop
// would have produced — the property checkpoint-based sweep resume relies
// on.
func Stream[T any](n int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	return stream(n, max(4*runtime.GOMAXPROCS(0), 16), fn, emit)
}

// stream is Stream with at most window results in flight.
func stream[T any](n, window int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	if n == 0 {
		return nil
	}
	fn = guard(fn)
	emit = guardEmit(emit)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return err
			}
			if err := emit(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type slot[U any] struct {
		v    U
		done bool
	}
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		buf      = make([]slot[T], window)
		next     = 0 // next index to claim
		frontier = 0 // next index to emit
		emitting = false
		failed   = false
		errIndex = n
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) { // callers hold mu
		if i < errIndex {
			errIndex, firstErr = i, err
		}
		failed = true
		cond.Broadcast()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for !failed && next < n && next-frontier >= window {
					cond.Wait()
				}
				if failed || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				v, err := fn(i)

				mu.Lock()
				if err != nil {
					fail(i, err)
					mu.Unlock()
					return
				}
				buf[i%window] = slot[T]{v: v, done: true}
				if i != frontier || emitting {
					// Not this worker's turn to drain; whoever completes (or
					// is already draining) the frontier picks this result up.
					cond.Broadcast()
					mu.Unlock()
					continue
				}
				emitting = true
				for !failed && frontier < n && buf[frontier%window].done {
					j := frontier
					val := buf[j%window].v
					buf[j%window] = slot[T]{}
					frontier++
					cond.Broadcast() // free the window slot for waiting claimers
					mu.Unlock()
					emitErr := emit(j, val)
					mu.Lock()
					if emitErr != nil {
						fail(j, emitErr)
						break
					}
				}
				emitting = false
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// guardEmit is guard for the two-argument emit callback: a panic inside
// emit(i, v) surfaces as a *PanicError failure at index i, exactly like an
// emit error.
func guardEmit[T any](emit func(i int, v T) error) func(i int, v T) error {
	return func(i int, v T) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return emit(i, v)
	}
}
