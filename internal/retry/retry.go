// Package retry provides bounded retry with deterministic backoff for the
// result-pipeline's I/O edges (sink writes, checkpoint appends).
//
// The policy is deliberately minimal and fully deterministic: a fixed
// attempt budget and an exponential backoff schedule computed purely from
// the attempt number (no jitter, no clock reads), so a faulted run retries
// on exactly the same schedule every time — the property the deterministic
// fault-injection harness (internal/faultinject) asserts on. Sleeping is
// pluggable so tests and chaos runs execute the schedule without waiting.
package retry

import (
	"context"
	"fmt"
	"io"
	"time"
)

// Policy bounds a retried operation: up to Attempts tries with Backoff
// sleeps between consecutive tries. The zero Policy is usable and means
// "one try, no retry".
type Policy struct {
	// Attempts is the total number of tries (first try included). Values
	// below 1 behave as 1.
	Attempts int
	// Base is the sleep before the first retry; the delay doubles each
	// further retry (deterministic exponential backoff, no jitter).
	Base time.Duration
	// Max caps the per-retry delay; 0 means uncapped.
	Max time.Duration
	// Sleep replaces time.Sleep, letting tests and chaos harnesses run the
	// schedule without wall-clock waiting. Nil means time.Sleep.
	Sleep func(time.Duration)
}

// Backoff returns the deterministic delay before retry number retry
// (1-based: the sleep between try retry and try retry+1).
func (p Policy) Backoff(retry int) time.Duration {
	if p.Base <= 0 || retry < 1 {
		return 0
	}
	d := p.Base
	for i := 1; i < retry; i++ {
		d *= 2
		if p.Max > 0 && d >= p.Max {
			return p.Max
		}
	}
	if p.Max > 0 && d > p.Max {
		return p.Max
	}
	return d
}

// attempts returns the effective try budget.
func (p Policy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// Do runs op up to Attempts times, sleeping Backoff(i) between tries, and
// returns nil on the first success. On exhaustion it returns the last error
// wrapped with the attempt count. It is DoCtx without cancellation.
func (p Policy) Do(op func() error) error {
	return p.DoCtx(context.Background(), op)
}

// DoCtx is Do with cooperative cancellation: a done ctx is honored before
// the first attempt (op is never called), between attempts, and — crucially
// for draining servers and canceled load runs — during a backoff sleep,
// which is interrupted immediately instead of running to completion. On
// cancellation the context error is returned, wrapped with the last attempt
// error when at least one attempt ran. Cancellation truncates the backoff
// schedule, never reshapes it.
func (p Policy) DoCtx(ctx context.Context, op func() error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("retry: canceled before first attempt: %w", cerr)
	}
	var err error
	n := p.attempts()
	for i := 1; i <= n; i++ {
		if err = op(); err == nil {
			return nil
		}
		if i < n {
			if cerr := p.sleepCtx(ctx, p.Backoff(i)); cerr != nil {
				return fmt.Errorf("retry: canceled after %d attempt(s) (last error: %v): %w", i, err, cerr)
			}
		}
	}
	if n > 1 {
		return fmt.Errorf("retry: %d attempts exhausted: %w", n, err)
	}
	return err
}

// sleepCtx waits for d or until ctx is done, whichever comes first,
// returning the context error on cancellation. A configured Sleep hook runs
// to completion (tests substitute instant sleeps) with ctx re-checked
// after; the real-clock path parks on a timer that ctx interrupts.
func (p Policy) sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Writer wraps w so every Write is retried under the policy. Partial writes
// are resumed from the failure point (never re-writing bytes the underlying
// writer already accepted), so a transient failure below a record-oriented
// sink cannot duplicate or tear records that eventually succeed.
type Writer struct {
	w io.Writer
	p Policy
}

// NewWriter returns a retrying writer over w.
func NewWriter(w io.Writer, p Policy) *Writer { return &Writer{w: w, p: p} }

// Write implements io.Writer with bounded per-chunk retry.
func (rw *Writer) Write(b []byte) (int, error) {
	written := 0
	err := rw.p.Do(func() error {
		n, werr := rw.w.Write(b[written:])
		written += n
		if werr == nil && written < len(b) {
			werr = io.ErrShortWrite
		}
		return werr
	})
	return written, err
}
