package registry

import (
	"fmt"
	"runtime/debug"

	"asyncagree/internal/sim"
)

// DeadlineCheckInterval is how many windows a wall-clock or context deadline
// watchdog lets pass between reads of its clock: rare enough that the read
// stays off the hot window loop, frequent enough (windows are
// sub-millisecond) that a runaway trial is caught close to its deadline.
const DeadlineCheckInterval = 32

// Outcome is the receipt of one contained trial: the run summary plus the
// fault classification when the trial did not complete cleanly. Every front
// end — the sweep matrix, the adversary search, the agreed daemon — issues
// its records and replies from this one value.
type Outcome struct {
	// Result is the complete summary of a clean trial, the configuration at
	// the stop for FaultDeadline and for a FaultError raised by the window
	// loop, and zero for FaultPanic and for a trial that never acquired an
	// engine.
	Result sim.RunResult
	// Kind is "" for a clean trial, otherwise FaultPanic, FaultDeadline or
	// FaultError.
	Kind string
	// Fault is the raw fault text: "panic: <value>" followed by the
	// recovered stack for FaultPanic, the error text for FaultError, and
	// empty for FaultDeadline — only the caller knows which watchdog it
	// armed. Callers append their own "(trial i, key)" suffix.
	Fault string
}

// RunContained executes one window-mode trial of the named scenario at p
// with every failure contained and classified: generate the inputs (the
// named pattern at p.Seed, unless p.Inputs already holds them), acquire a
// pooled engine, run to maxWindows under the cooperative watchdog expired
// (polled on window boundaries; nil disables it), and hand the engine back.
// It is the only place a trial's panic is recovered:
//
//   - a panic anywhere below — input generation, AcquireTrial's recycle
//     hooks, an algorithm step, adversary planning, expired itself — is a
//     FaultPanic, and the engine (if one was acquired) is Poisoned so it
//     never re-enters its pool;
//   - an unknown name, a rejected size or knob vector, an illegal window or
//     a detected safety violation is a FaultError;
//   - expired returning true is a FaultDeadline carrying the partial result;
//   - everything else is clean.
//
// Engines that did not panic are Released, so EngineStats always balances:
// Acquired == Released + Poisoned. onEvent, when non-nil, observes the
// trial's event stream and is cleared before the engine is pooled again.
func RunContained(alg, adv, sched, input string, p Params, maxWindows int,
	expired func(windows int) bool, onEvent func(sim.Event)) (out Outcome) {
	var e *TrialEngine
	defer func() {
		if r := recover(); r != nil {
			if e != nil {
				e.Poison()
			}
			out = Outcome{Kind: FaultPanic, Fault: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())}
		}
	}()
	var err error
	if p.Inputs == nil {
		if p.Inputs, err = Inputs(input, p.N, p.Seed); err != nil {
			return Outcome{Kind: FaultError, Fault: err.Error()}
		}
	}
	if e, err = AcquireTrial(alg, adv, sched, p); err != nil {
		return Outcome{Kind: FaultError, Fault: err.Error()}
	}
	if onEvent != nil {
		e.sys.OnEvent = onEvent
	}
	res, stalled, err := e.RunUntil(maxWindows, expired)
	if onEvent != nil {
		// The hook survives Recycle (deliberately, for long-lived tracers);
		// a pooled engine must not carry this trial's closure to the next.
		e.sys.OnEvent = nil
	}
	e.Release()
	switch {
	case err != nil:
		return Outcome{Result: res, Kind: FaultError, Fault: err.Error()}
	case stalled:
		return Outcome{Result: res, Kind: FaultDeadline}
	}
	return Outcome{Result: res}
}
