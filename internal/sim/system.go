package sim

import (
	"errors"
	"fmt"
	"runtime"

	"asyncagree/internal/rng"
)

// Sentinel errors returned by System step and window operations.
var (
	// ErrBadWindow indicates a window violating Definition 1 (a sender set
	// smaller than n-t, or more than t resets).
	ErrBadWindow = errors.New("sim: window violates acceptable-window constraints")
	// ErrNoSuchProc indicates an out-of-range processor ID.
	ErrNoSuchProc = errors.New("sim: no such processor")
	// ErrNoSuchMessage indicates a delivery of a message not in the buffer.
	ErrNoSuchMessage = errors.New("sim: no such buffered message")
	// ErrCrashed indicates a step by or delivery to a crashed processor.
	ErrCrashed = errors.New("sim: processor has crashed")
	// ErrFaultBudget indicates the adversary exceeded its fault budget t.
	ErrFaultBudget = errors.New("sim: fault budget t exceeded")
	// ErrOutputRewritten indicates a Process violated the write-once output
	// contract. This is an algorithm bug, surfaced loudly.
	ErrOutputRewritten = errors.New("sim: write-once output bit was rewritten")
)

// Config configures a System.
type Config struct {
	// N is the number of processors; T the fault budget (resets per window
	// in window mode, total crashes/corruptions otherwise).
	N, T int
	// Seed seeds all randomness; equal seeds give identical executions
	// under deterministic adversaries.
	Seed uint64
	// Inputs are the n input bits.
	Inputs []Bit
	// NewProcess constructs the algorithm instance for one processor.
	NewProcess func(id ProcID, input Bit) Process
}

// WindowAdversary plans one acceptable window at a time with full
// information: it is invoked after all sending steps of the window, with the
// just-sent batch in hand, and returns the sender sets and resets.
type WindowAdversary interface {
	PlanDelivery(s *System, batch []Message) Window
}

// StepAdversary drives step mode: it returns the next fine-grained step, or
// ok=false to end the execution.
type StepAdversary interface {
	NextStep(s *System) (step Step, ok bool)
}

// EventKind enumerates trace event types.
type EventKind int

// Trace event kinds.
const (
	EvWindow EventKind = iota + 1
	EvSend
	EvDeliver
	EvReset
	EvCrash
	EvDecide
)

// Event is a single trace event, emitted through Config-free observation via
// System.OnEvent.
type Event struct {
	Kind   EventKind
	Window int
	Proc   ProcID
	Msg    Message
	Value  Bit
}

// System holds the full configuration of the n processors plus the message
// buffer, and executes adversary-chosen steps. It is not safe for concurrent
// use; run one System per goroutine.
type System struct {
	n, t int

	procs []Process
	// newProcess is the Config factory, retained so Recycle can rebuild
	// processes that do not implement the Recycler hook (and replace
	// corrupted ones).
	newProcess func(id ProcID, input Bit) Process
	rngs       []*rng.Source
	inputs     []Bit
	crashed    []bool
	// corrupt marks Byzantine-corrupted processors (replaced by adversary
	// processes); they are excluded from agreement/termination checks.
	corrupt []bool

	buffer *Buffer

	resetCounts  []int
	totalCrashes int
	totalCorrupt int

	windows int
	steps   int64

	// chainDepth[i] is the maximum Depth over messages processor i has
	// received; a message sent by i gets Depth = chainDepth[i]+1.
	chainDepth []int

	// decidedVal/decidedOK mirror processor outputs for write-once
	// enforcement; decidedWindow records the window (or step, in step mode)
	// of each decision. firstDecision is -1 until some processor decides.
	decidedVal    []Bit
	decidedOK     []bool
	decidedWindow []int
	firstDecision int

	// OnEvent, when non-nil, observes every step for tracing.
	OnEvent func(Event)

	violation error

	// Scratch state for the allocation-free window pipeline (window.go).
	// batch is the slice WindowSend returned, the ring cells its sends filled
	// (ownBatch compares against it); orderIdx/orderOff/orderPos hold the
	// delivering batch's receiver-major order
	// (bucketByReceiver, or sortByReceiver for a hand-built batch); allowBits
	// is a receiver-major bitset of permitted senders (allowWords words per
	// receiver) with allowAll flagging receivers whose sender set is nil
	// ("all senders"). A planner may fill allowBits itself (SenderRows): it is
	// scratch between a window's send and its validation.
	batch      []Message
	orderIdx   []int32 // batch indices bucketed by receiver
	orderOff   []int32 // orderIdx bucket offsets, len n+1
	orderPos   []int32 // bucket fill cursors, len n
	allowWords int
	allowBits  []uint64
	allowAll   []bool

	// Window core state (shard.go, shardpool.go). whole is the scratch of the
	// one range [0, n) the caller walks inline; shardWorkers >= 2 swaps in
	// shards, walked by shardPool, for every phase whose bodies may run
	// concurrently. The pool and per-shard scratch are built on the first
	// such phase and — like the rest of the scratch — deliberately survive
	// Recycle, so a pooled trial engine keeps its worker goroutines hot
	// across thousands of trials. phaseSenders or phaseRows (the window's
	// one plan form) and phaseBatch are the running phase's inputs, nil
	// outside it.
	whole        [1]windowShard
	shardWorkers int
	shardPool    *shardPool
	shardCleanup runtime.Cleanup
	shards       []windowShard
	phaseSenders [][]ProcID
	phaseRows    []uint64
	phaseBatch   []Message

	// Columnar kernel state (columnar.go). colOff disables the fast path
	// (the zero value keeps it enabled); colCap caches whether every process
	// implements the columnar hooks (+1 yes, -1 no, 0 unknown — sound to
	// cache because it is only consulted while no processor is corrupted and
	// Recycle rebuilds corrupted processors through the same factory, so
	// process types never change under the guard). colSet/colDepth* are
	// reusable window scratch; colFullMsgs/colFullDepth cache the all-senders
	// tally shared by allowAll receivers, computed before the tally phase.
	// Like the core's scratch, all of it deliberately survives Recycle.
	colOff       bool
	colCap       int8
	colSet       ColumnSet
	colDepths    []int
	colDepthRows [][]uint64
	colFullMsgs  int64
	colFullDepth int
}

// New constructs a System, instantiating one Process per processor.
func New(cfg Config) (*System, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sim: n must be positive, got %d", cfg.N)
	}
	if cfg.T < 0 || cfg.T >= cfg.N {
		return nil, fmt.Errorf("sim: t must satisfy 0 <= t < n, got t=%d n=%d", cfg.T, cfg.N)
	}
	if len(cfg.Inputs) != cfg.N {
		return nil, fmt.Errorf("sim: got %d inputs for n=%d", len(cfg.Inputs), cfg.N)
	}
	if cfg.NewProcess == nil {
		return nil, errors.New("sim: NewProcess must be set")
	}
	root := rng.New(cfg.Seed)
	s := &System{
		n:             cfg.N,
		t:             cfg.T,
		procs:         make([]Process, cfg.N),
		newProcess:    cfg.NewProcess,
		rngs:          make([]*rng.Source, cfg.N),
		inputs:        append([]Bit(nil), cfg.Inputs...),
		crashed:       make([]bool, cfg.N),
		corrupt:       make([]bool, cfg.N),
		buffer:        NewBuffer(),
		resetCounts:   make([]int, cfg.N),
		chainDepth:    make([]int, cfg.N),
		decidedVal:    make([]Bit, cfg.N),
		decidedOK:     make([]bool, cfg.N),
		decidedWindow: make([]int, cfg.N),
		firstDecision: -1,
		allowWords:    (cfg.N + 63) / 64,
	}
	s.allowBits = make([]uint64, cfg.N*s.allowWords)
	s.allowAll = make([]bool, cfg.N)
	for i := 0; i < cfg.N; i++ {
		s.rngs[i] = root.Fork(uint64(i))
		s.procs[i] = cfg.NewProcess(ProcID(i), cfg.Inputs[i])
		if s.procs[i] == nil {
			return nil, fmt.Errorf("sim: NewProcess returned nil for processor %d", i)
		}
	}
	return s, nil
}

// Reseed replaces every processor's randomness source with a fresh stream
// derived from seed. The lower-bound machinery uses this to sample many
// independent continuations of the same partial execution (the probability
// P[window application lands in Z^{k-1}] of Definition 12): future local
// coins are independent of the past, so reseeding at a configuration is
// equivalent to conditioning on it.
func (s *System) Reseed(seed uint64) {
	var root rng.Source
	root.Reseed(seed)
	for i := range s.rngs {
		root.ForkInto(s.rngs[i], uint64(i))
	}
}

// Recycle rewinds the System to the state New would produce for the same
// (n, t) shape with the given seed and inputs, without freeing anything: the
// buffer's ring, scratch buffers, per-processor randomness sources, and
// decision bookkeeping are all rewound in place, so a recycled steady-state
// trial allocates (near) nothing. Processes implementing Recycler are
// rewound through that hook; others (and any replaced by Corrupt) are
// rebuilt through the construction factory. The OnEvent observer, if any,
// persists across trials.
func (s *System) Recycle(seed uint64, inputs []Bit) error {
	if len(inputs) != s.n {
		return fmt.Errorf("sim: got %d inputs for n=%d", len(inputs), s.n)
	}
	copy(s.inputs, inputs)
	s.buffer.Reset()
	var root rng.Source
	root.Reseed(seed)
	for i := 0; i < s.n; i++ {
		root.ForkInto(s.rngs[i], uint64(i))
		if r, ok := s.procs[i].(Recycler); ok && !s.corrupt[i] {
			r.Recycle(inputs[i])
		} else {
			s.procs[i] = s.newProcess(ProcID(i), inputs[i])
			if s.procs[i] == nil {
				return fmt.Errorf("sim: NewProcess returned nil for processor %d", i)
			}
		}
		s.crashed[i] = false
		s.corrupt[i] = false
		s.resetCounts[i] = 0
		s.chainDepth[i] = 0
		s.decidedVal[i] = 0
		s.decidedOK[i] = false
		s.decidedWindow[i] = 0
	}
	s.totalCrashes = 0
	s.totalCorrupt = 0
	s.windows = 0
	s.steps = 0
	s.firstDecision = -1
	s.violation = nil
	return nil
}

// N returns the number of processors.
func (s *System) N() int { return s.n }

// T returns the fault budget.
func (s *System) T() int { return s.t }

// Windows returns the number of completed acceptable windows.
func (s *System) Windows() int { return s.windows }

// Steps returns the number of fine-grained steps executed.
func (s *System) Steps() int64 { return s.steps }

// SenderRows returns the System's own sender rows for a planner to fill in
// place and hand back as Window.SenderRows: N() rows of RowWords() words,
// receiver-major. Planning runs between a window's send and its validation,
// when nothing else reads them; what they held before is unspecified.
func (s *System) SenderRows() []uint64 { return s.allowBits }

// RowWords returns the width of one sender row in 64-bit words, (N()+63)/64.
func (s *System) RowWords() int { return s.allowWords }

// Buffer exposes the message buffer (adversaries have full information).
func (s *System) Buffer() *Buffer { return s.buffer }

// Proc returns the Process at id (adversaries have full information and may
// inspect snapshots; mutating it is a contract violation).
func (s *System) Proc(id ProcID) Process { return s.procs[id] }

// Input returns processor id's input bit.
func (s *System) Input(id ProcID) Bit { return s.inputs[id] }

// Crashed reports whether processor id has crashed.
func (s *System) Crashed(id ProcID) bool { return s.crashed[id] }

// Corrupted reports whether processor id has been Byzantine-corrupted.
func (s *System) Corrupted(id ProcID) bool { return s.corrupt[id] }

// ResetCount returns the number of resets processor id has suffered.
func (s *System) ResetCount(id ProcID) int { return s.resetCounts[id] }

// ChainDepth returns the maximum received message-chain depth at id.
func (s *System) ChainDepth(id ProcID) int { return s.chainDepth[id] }

// FirstDecisionWindow returns the window index (0-based) in which the first
// decision occurred, or -1 if none yet. In step mode the unit is steps.
func (s *System) FirstDecisionWindow() int { return s.firstDecision }

// DecisionWindow returns the window in which processor id decided and
// whether it has decided.
func (s *System) DecisionWindow(id ProcID) (int, bool) {
	return s.decidedWindow[id], s.decidedOK[id]
}

// Violation returns the first detected safety violation (write-once output
// rewritten), or nil. Agreement and validity are checked via AgreementOK and
// ValidityOK.
func (s *System) Violation() error { return s.violation }

func (s *System) checkProc(id ProcID) error {
	if id < 0 || int(id) >= s.n {
		return fmt.Errorf("%w: %d", ErrNoSuchProc, id)
	}
	return nil
}

// emit sends ev to the observer if one is installed.
func (s *System) emit(ev Event) {
	if s.OnEvent != nil {
		ev.Window = s.windows
		s.OnEvent(ev)
	}
}

// deliver executes a receiving step for message m (already removed from the
// buffer) outside a window: step mode's one-message case of the window core.
func (s *System) deliver(m Message) {
	rs := s.ranges(false)
	s.deliverMsg(&rs[0], m)
	s.mergeRanges(rs)
}

// reset executes the resetting steps of procs, in order.
func (s *System) reset(procs ...ProcID) {
	rs := s.ranges(false)
	sh := &rs[0]
	for _, id := range procs {
		sh.steps++
		s.resetCounts[id]++
		s.procs[id].Reset()
		if s.OnEvent != nil {
			sh.events = append(sh.events, Event{Kind: EvReset, Proc: id})
		}
		s.recordOutputs(sh, id) // output must survive a reset
	}
	s.mergeRanges(rs)
}
