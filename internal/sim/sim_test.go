package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// echoProc is a minimal test process: every delivered payload is recorded;
// each window it broadcasts its input; it decides its input after deciding
// threshold deliveries.
type echoProc struct {
	id        ProcID
	n         int
	input     Bit
	out       Bit
	decided   bool
	delivered []Message
	resets    int
	dirty     bool
	decideAt  int // decide after this many deliveries; 0 = never
}

func newEcho(n, decideAt int) func(ProcID, Bit) Process {
	return func(id ProcID, input Bit) Process {
		return &echoProc{id: id, n: n, input: input, dirty: true, decideAt: decideAt}
	}
}

func (p *echoProc) ID() ProcID          { return p.id }
func (p *echoProc) Input() Bit          { return p.input }
func (p *echoProc) Output() (Bit, bool) { return p.out, p.decided }

func (p *echoProc) Send() []Message {
	if !p.dirty {
		return nil
	}
	p.dirty = false
	out := make([]Message, 0, p.n)
	for q := 0; q < p.n; q++ {
		out = append(out, Message{From: p.id, To: ProcID(q), Payload: p.input})
	}
	return out
}

func (p *echoProc) Deliver(m Message, _ RandSource) {
	p.delivered = append(p.delivered, m)
	p.dirty = true
	if p.decideAt > 0 && len(p.delivered) >= p.decideAt && !p.decided {
		p.out = p.input
		p.decided = true
	}
}

func (p *echoProc) Reset() {
	p.resets++
	p.delivered = nil
	p.dirty = false
}

func (p *echoProc) Snapshot() string {
	return fmt.Sprintf("in=%d got=%d resets=%d", p.input, len(p.delivered), p.resets)
}

func mkInputs(n int, pattern string) []Bit {
	in := make([]Bit, n)
	for i := range in {
		if pattern == "split" && i%2 == 1 {
			in[i] = 1
		}
		if pattern == "ones" {
			in[i] = 1
		}
	}
	return in
}

func newTestSystem(t *testing.T, n, tt int, pattern string, decideAt int) *System {
	t.Helper()
	s, err := New(Config{
		N: n, T: tt, Seed: 1,
		Inputs:     mkInputs(n, pattern),
		NewProcess: newEcho(n, decideAt),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero n", Config{N: 0, T: 0, Inputs: nil, NewProcess: newEcho(0, 0)}},
		{"negative t", Config{N: 4, T: -1, Inputs: make([]Bit, 4), NewProcess: newEcho(4, 0)}},
		{"t >= n", Config{N: 4, T: 4, Inputs: make([]Bit, 4), NewProcess: newEcho(4, 0)}},
		{"wrong inputs", Config{N: 4, T: 1, Inputs: make([]Bit, 3), NewProcess: newEcho(4, 0)}},
		{"nil factory", Config{N: 4, T: 1, Inputs: make([]Bit, 4)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.cfg); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestWindowSendDeliverAll(t *testing.T) {
	s := newTestSystem(t, 4, 1, "split", 0)
	batch := s.WindowSend()
	if len(batch) != 16 {
		t.Fatalf("batch size = %d, want 16", len(batch))
	}
	if err := s.WindowDeliver(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ep := s.Proc(ProcID(i)).(*echoProc)
		if len(ep.delivered) != 4 {
			t.Fatalf("processor %d received %d messages, want 4", i, len(ep.delivered))
		}
	}
	if s.Buffer().Len() != 0 {
		t.Fatalf("buffer not drained: %d left", s.Buffer().Len())
	}
	// The batch is spent: without a new WindowSend the next window is empty.
	steps := s.Steps()
	if err := s.WindowDeliver(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := len(s.Proc(ProcID(i)).(*echoProc).delivered); got != 4 {
			t.Fatalf("a second delivery gave processor %d %d messages in all, want 4", i, got)
		}
	}
	if s.Steps() != steps {
		t.Fatalf("a second delivery took %d steps, want 0", s.Steps()-steps)
	}
}

func TestWindowDeliverRejectsSmallSenderSet(t *testing.T) {
	s := newTestSystem(t, 4, 1, "split", 0)
	s.WindowSend()
	rows := s.SenderRows()
	for i := 0; i < 4; i++ {
		rows[i*s.RowWords()] = 0b1111
	}
	rows[2*s.RowWords()] = 1<<1 | 1<<3 // senders {1, 3}: size 2 < n-t = 3
	err := s.WindowDeliver(rows)
	if !errors.Is(err, ErrBadWindow) {
		t.Fatalf("err = %v, want ErrBadWindow", err)
	}
}

func TestWindowDeliverRejectsWrongCount(t *testing.T) {
	s := newTestSystem(t, 4, 1, "split", 0)
	s.WindowSend()
	if err := s.WindowDeliver(make([]uint64, 3*s.RowWords())); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("err = %v, want ErrBadWindow", err)
	}
}

// TestWindowSendOverStepResidue opens a window on a buffer step mode left
// mid-ring: its front far from cell 0 and two messages still live, so the
// window's sends would wrap the ring had WindowSend not moved the span to the
// start first. The batch must still be the contiguous run of fresh IDs behind
// the residue, recognized as the System's own; the window delivers exactly
// it, and the residue stays buffered, untouched, for step mode to finish.
func TestWindowSendOverStepResidue(t *testing.T) {
	const n = 4
	s := newTestSystem(t, n, 1, "split", 0)
	stepRound := func(keep int) { // everyone sends; all but the last keep messages are delivered
		for p := 0; p < n; p++ {
			if _, err := s.StepSend(ProcID(p)); err != nil {
				t.Fatal(err)
			}
		}
		ids := s.Buffer().IDs()
		for _, id := range ids[:len(ids)-keep] {
			if err := s.StepDeliver(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 3 {
		stepRound(0)
	}
	stepRound(2)
	residue := s.Buffer().Pending()
	if b := s.Buffer(); len(residue) != 2 || b.head+b.span()+n*n <= len(b.ring) {
		t.Fatalf("vacuous: %d messages left, front at cell %d of %d", len(residue), b.head, len(b.ring))
	}
	steps := s.Steps()
	batch := s.WindowSend()
	if len(batch) != n*n {
		t.Fatalf("batch of %d messages, want the %d just sent", len(batch), n*n)
	}
	for i, m := range batch {
		if want := residue[1].ID + 1 + int64(i); m.ID != want || m.From != ProcID(i/n) || m.To != ProcID(i%n) {
			t.Fatalf("batch[%d] = %d %d>%d, want ID %d from %d to %d", i, m.ID, m.From, m.To, want, i/n, i%n)
		}
	}
	if err := s.WindowDeliver(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Steps() - steps; got != n+n*n {
		t.Fatalf("the window took %d steps, want %d sends and %d deliveries", got, n, n*n)
	}
	if got := s.Buffer().Pending(); !slices.Equal(got, residue) {
		t.Fatalf("residue after the window %v, want %v", got, residue)
	}
	for _, m := range residue {
		if err := s.StepDeliver(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if s.Buffer().Len() != 0 {
		t.Fatalf("%d messages left", s.Buffer().Len())
	}
}

// TestRowPlanRejectsIllegalRows is the one table over sender-row plans,
// legal and illegal, on an n = 70, t = 8 System (two words a row, the second
// with a 58-bit tail). Each plan is submitted in the System's own rows and in
// a foreign slice that has to be copied in. An illegal plan is refused with
// its error before anything is delivered, leaving the window count, steps,
// buffer and configuration as they were, and the System then takes a
// full-delivery window as usual; a legal one delivers every receiver exactly
// one message from each sender its row admits, and drops the rest.
func TestRowPlanRejectsIllegalRows(t *testing.T) {
	const n, tt = 70, 8
	full := func(s *System) []uint64 {
		rows := s.SenderRows()
		clear(rows) // what the rows held before is the planner's to overwrite
		for i := 0; i < n; i++ {
			for q := 0; q < n; q++ {
				rows[i*s.RowWords()+q>>6] |= 1 << (q & 63)
			}
		}
		return rows
	}
	ascending := func(k int) []ProcID {
		set := make([]ProcID, k)
		for i := range set {
			set[i] = ProcID(i)
		}
		return set
	}
	cases := []struct {
		name   string
		plan   func(s *System) Window
		admits func(receiver, sender int) bool // a legal plan's sets
		resets []ProcID                        // the resets the plan carries
		want   error                           // an illegal plan's refusal
	}{
		{name: "per-receiver subset", plan: func(s *System) Window {
			rows := full(s)
			for i := 0; i < n; i++ { // receiver i loses senders i..i+t-1
				for k := 0; k < tt; k++ {
					q := (i + k) % n
					rows[i*s.RowWords()+q>>6] &^= 1 << (q & 63)
				}
			}
			return Window{SenderRows: rows}
		}, admits: func(i, q int) bool { return (q-i+n)%n >= tt }},
		{name: "nil rows", plan: func(*System) Window { return Window{} },
			admits: func(int, int) bool { return true }},
		{name: "one sender short", plan: func(s *System) Window {
			rows := full(s)
			rows[3*s.RowWords()] &^= 1<<(tt+1) - 1 // receiver 3 loses senders 0..t
			return Window{SenderRows: rows}
		}, want: ErrBadWindow},
		{name: "bit past n in the last word", plan: func(s *System) Window {
			rows := full(s)
			rows[n*s.RowWords()-1] |= 1 << (n & 63) // receiver n-1 admits "sender n"
			return Window{SenderRows: rows}
		}, want: ErrNoSuchProc},
		{name: "wrong slice length", plan: func(s *System) Window {
			rows := full(s)
			return Window{SenderRows: rows[:len(rows)-1]}
		}, want: ErrBadWindow},
		{name: "uniform, duplicates collapse below n-t", plan: func(s *System) Window {
			return s.UniformWindow(append(ascending(n-tt-1), 0), []ProcID{1}) // n-t entries, n-t-1 distinct
		}, resets: []ProcID{1}, want: ErrBadWindow},
		{name: "uniform, duplicates collapse to n-t", plan: func(s *System) Window {
			return s.UniformWindow(append(ascending(n-tt), 5, 0, 5), []ProcID{1})
		}, resets: []ProcID{1}, admits: func(_, q int) bool { return q < n-tt }},
	}
	for _, tc := range cases {
		for _, foreign := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/foreign=%v", tc.name, foreign), func(t *testing.T) {
				s := newTestSystem(t, n, tt, "split", 0)
				s.WindowSend()
				w := tc.plan(s)
				if foreign && w.SenderRows != nil {
					w.SenderRows = slices.Clone(w.SenderRows)
				}
				if !slices.Equal(w.Resets, tc.resets) {
					t.Fatalf("plan resets %v, want %v", w.Resets, tc.resets)
				}
				steps, buffered, snap := s.Steps(), s.Buffer().Len(), s.ConfigurationSnapshot()
				err := s.WindowDeliver(w.SenderRows)
				if tc.want != nil {
					if !errors.Is(err, tc.want) {
						t.Fatalf("err = %v, want %v", err, tc.want)
					}
					if s.Windows() != 0 || s.Steps() != steps || s.Buffer().Len() != buffered ||
						!slices.Equal(s.ConfigurationSnapshot(), snap) {
						t.Fatalf("a rejected plan moved the System: windows %d, steps %d (was %d), buffered %d (was %d)",
							s.Windows(), s.Steps(), steps, s.Buffer().Len(), buffered)
					}
					if err := s.WindowDeliver(nil); err != nil {
						t.Fatal(err)
					}
					if got := len(s.Proc(3).(*echoProc).delivered); got != n || s.Buffer().Len() != 0 {
						t.Fatalf("full delivery after the refusal: processor 3 received %d of %d, %d still buffered", got, n, s.Buffer().Len())
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					got := make([]int, n)
					for _, m := range s.Proc(ProcID(i)).(*echoProc).delivered {
						got[m.From]++
					}
					for q, c := range got {
						want := 0
						if tc.admits(i, q) {
							want = 1
						}
						if c != want {
							t.Fatalf("receiver %d got %d messages from sender %d, want %d", i, c, q, want)
						}
					}
				}
				if s.Buffer().Len() != 0 {
					t.Fatalf("undelivered window messages linger: %d", s.Buffer().Len())
				}
			})
		}
	}
	t.Run("uniform, sender past n", func(t *testing.T) {
		s := newTestSystem(t, n, tt, "split", 0)
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), "sender 70 outside [0, 70)") {
				t.Fatalf("recovered %v, want a panic naming the sender and n", r)
			}
		}()
		s.UniformWindow([]ProcID{0, n}, nil)
	})
}

func TestWindowResetsBudget(t *testing.T) {
	s := newTestSystem(t, 4, 1, "split", 0)
	if err := s.WindowResets([]ProcID{0, 1}); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("two resets with t=1: err = %v, want ErrBadWindow", err)
	}
	if err := s.WindowResets([]ProcID{2}); err != nil {
		t.Fatal(err)
	}
	if s.ResetCount(2) != 1 {
		t.Fatalf("reset count = %d, want 1", s.ResetCount(2))
	}
	if s.Proc(2).(*echoProc).resets != 1 {
		t.Fatal("process Reset not invoked")
	}
}

func TestWindowResetsRejectDuplicates(t *testing.T) {
	s := newTestSystem(t, 8, 2, "split", 0)
	if err := s.WindowResets([]ProcID{3, 3}); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("duplicate resets: err = %v, want ErrBadWindow", err)
	}
}

func TestSendingStepIdempotent(t *testing.T) {
	s := newTestSystem(t, 3, 0, "split", 0)
	first, err := s.StepSend(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Fatalf("first send: %d messages, want 3", len(first))
	}
	second, err := s.StepSend(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 0 {
		t.Fatalf("second sending step with no intervening event sent %d messages, want 0", len(second))
	}
}

func TestAuthenticatedChannels(t *testing.T) {
	// A process that lies about From must be corrected by the system.
	s, err := New(Config{
		N: 2, T: 0, Seed: 1, Inputs: make([]Bit, 2),
		NewProcess: func(id ProcID, input Bit) Process {
			return &forgingProc{echoProc: echoProc{id: id, n: 2, input: input, dirty: true}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.StepSend(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range batch {
		if m.From != 1 {
			t.Fatalf("forged From survived: %v", m.From)
		}
	}
}

type forgingProc struct{ echoProc }

func (p *forgingProc) Send() []Message {
	msgs := p.echoProc.Send()
	for i := range msgs {
		msgs[i].From = 0 // attempt to forge
	}
	return msgs
}

func TestStepCrashBudgetAndSemantics(t *testing.T) {
	s := newTestSystem(t, 4, 1, "split", 0)
	if err := s.StepCrash(0); err != nil {
		t.Fatal(err)
	}
	if !s.Crashed(0) {
		t.Fatal("processor 0 not crashed")
	}
	if err := s.StepCrash(0); err != nil {
		t.Fatalf("re-crash should be a no-op, got %v", err)
	}
	if err := s.StepCrash(1); !errors.Is(err, ErrFaultBudget) {
		t.Fatalf("second crash with t=1: err = %v, want ErrFaultBudget", err)
	}
	if _, err := s.StepSend(0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("send by crashed: err = %v, want ErrCrashed", err)
	}
}

func TestCrashDropsPendingMessages(t *testing.T) {
	s := newTestSystem(t, 3, 1, "split", 0)
	if _, err := s.StepSend(0); err != nil {
		t.Fatal(err)
	}
	before := s.Buffer().Len()
	if before != 3 {
		t.Fatalf("buffered = %d, want 3", before)
	}
	if err := s.StepCrash(1); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Buffer().Pending() {
		if m.To == 1 {
			t.Fatal("message to crashed processor still buffered")
		}
	}
}

func TestMessageChainDepth(t *testing.T) {
	s := newTestSystem(t, 2, 0, "split", 0)
	// p0 sends (depth 1); deliver to p1; p1 sends (depth 2); deliver to p0.
	batch, err := s.StepSend(0)
	if err != nil {
		t.Fatal(err)
	}
	var to1 Message
	for _, m := range batch {
		if m.To == 1 {
			to1 = m
		}
	}
	if to1.Depth != 1 {
		t.Fatalf("fresh message depth = %d, want 1", to1.Depth)
	}
	if err := s.StepDeliver(to1.ID); err != nil {
		t.Fatal(err)
	}
	if s.ChainDepth(1) != 1 {
		t.Fatalf("chain depth at receiver = %d, want 1", s.ChainDepth(1))
	}
	batch2, err := s.StepSend(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range batch2 {
		if m.Depth != 2 {
			t.Fatalf("second-hop message depth = %d, want 2", m.Depth)
		}
	}
}

func TestDeliverNoSuchMessage(t *testing.T) {
	s := newTestSystem(t, 2, 0, "split", 0)
	if err := s.StepDeliver(999); !errors.Is(err, ErrNoSuchMessage) {
		t.Fatalf("err = %v, want ErrNoSuchMessage", err)
	}
}

func TestAgreementValidityAccounting(t *testing.T) {
	// decideAt=1: each processor decides its own input after 1 delivery, so
	// split inputs yield an agreement violation (on purpose).
	s := newTestSystem(t, 4, 1, "split", 1)
	s.WindowSend()
	if err := s.WindowDeliver(nil); err != nil {
		t.Fatal(err)
	}
	if s.AgreementOK() {
		t.Fatal("expected detectable disagreement with split inputs and echo deciders")
	}
	if !s.ValidityOK() {
		t.Fatal("validity should hold: every decision equals some input")
	}
	if !s.AllDecided() {
		t.Fatal("all should have decided")
	}
}

func TestValidityViolationDetected(t *testing.T) {
	// All inputs 0 but a rogue process decides 1.
	s, err := New(Config{
		N: 2, T: 0, Seed: 1, Inputs: make([]Bit, 2),
		NewProcess: func(id ProcID, input Bit) Process {
			return &rogueProc{echoProc: echoProc{id: id, n: 2, input: input, dirty: true}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.WindowSend()
	if err := s.WindowDeliver(nil); err != nil {
		t.Fatal(err)
	}
	if s.ValidityOK() {
		t.Fatal("validity violation not detected")
	}
}

type rogueProc struct{ echoProc }

func (p *rogueProc) Deliver(m Message, r RandSource) {
	p.echoProc.Deliver(m, r)
	p.out, p.decided = 1, true // decide 1 despite all-zero inputs
}

func TestWriteOnceViolationDetected(t *testing.T) {
	newFlipFlop := func() *System {
		s, err := New(Config{
			N: 2, T: 0, Seed: 1, Inputs: make([]Bit, 2),
			NewProcess: func(id ProcID, input Bit) Process {
				return &flipFlopProc{echoProc: echoProc{id: id, n: 2, input: input, dirty: true}}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := newFlipFlop()
	for w := 0; w < 3 && s.Violation() == nil; w++ {
		s.WindowSend()
		if err := s.WindowDeliver(nil); err != nil {
			break
		}
	}
	if !errors.Is(s.Violation(), ErrOutputRewritten) {
		t.Fatalf("violation = %v, want ErrOutputRewritten", s.Violation())
	}

	// ApplyWindow, like ApplyWindowWith, returns the violation from the
	// window that detects it on.
	s = newFlipFlop()
	for w := 0; w < 3; w++ {
		err := s.ApplyWindow(Window{})
		if err != s.Violation() {
			t.Fatalf("window %d: ApplyWindow = %v, violation = %v", w, err, s.Violation())
		}
	}
	if !errors.Is(s.Violation(), ErrOutputRewritten) {
		t.Fatalf("ApplyWindow: violation = %v, want ErrOutputRewritten", s.Violation())
	}
}

type flipFlopProc struct {
	echoProc
	flips int
}

func (p *flipFlopProc) Deliver(m Message, r RandSource) {
	p.echoProc.Deliver(m, r)
	p.flips++
	p.out, p.decided = Bit(p.flips%2), true // rewrites its output
}

func TestOutputSurvivesReset(t *testing.T) {
	s := newTestSystem(t, 4, 1, "ones", 1)
	s.WindowSend()
	if err := s.WindowDeliver(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WindowResets([]ProcID{0}); err != nil {
		t.Fatal(err)
	}
	// echoProc keeps out/decided through Reset (the contract); system must
	// still see it decided.
	if s.DecidedCount() != 4 {
		t.Fatalf("decided count after reset = %d, want 4", s.DecidedCount())
	}
}

func TestCorruptBudget(t *testing.T) {
	s := newTestSystem(t, 4, 1, "split", 0)
	evil := newEcho(4, 0)(0, 1)
	if err := s.Corrupt(0, evil); err != nil {
		t.Fatal(err)
	}
	if !s.Corrupted(0) {
		t.Fatal("corruption not recorded")
	}
	if err := s.Corrupt(1, evil); !errors.Is(err, ErrFaultBudget) {
		t.Fatalf("err = %v, want ErrFaultBudget", err)
	}
	// Re-corrupting the same processor is allowed (strategy swap).
	if err := s.Corrupt(0, evil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigurationSnapshot(t *testing.T) {
	s := newTestSystem(t, 3, 0, "split", 0)
	snap := s.ConfigurationSnapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for i, st := range snap {
		if !strings.Contains(st, "in=") {
			t.Fatalf("snapshot[%d] = %q not canonical", i, st)
		}
	}
}

func TestEventsEmitted(t *testing.T) {
	s := newTestSystem(t, 2, 0, "ones", 1)
	var kinds []EventKind
	s.OnEvent = func(ev Event) { kinds = append(kinds, ev.Kind) }
	if err := s.ApplyWindow(Window{}); err != nil {
		t.Fatal(err)
	}
	var sends, delivers, decides, windows int
	for _, k := range kinds {
		switch k {
		case EvSend:
			sends++
		case EvDeliver:
			delivers++
		case EvDecide:
			decides++
		case EvWindow:
			windows++
		}
	}
	if sends != 4 || delivers != 4 || decides != 2 || windows != 1 {
		t.Fatalf("events: sends=%d delivers=%d decides=%d windows=%d", sends, delivers, decides, windows)
	}
}

// Property: for any window shape within constraints, each receiver gets at
// most one message per sender and only from its sender set.
func TestDeliveryPerSenderProperty(t *testing.T) {
	check := func(seed uint64, excludeRaw uint8) bool {
		const n, tt = 6, 2
		s, err := New(Config{
			N: n, T: tt, Seed: seed, Inputs: mkInputs(n, "split"),
			NewProcess: newEcho(n, 0),
		})
		if err != nil {
			return false
		}
		// Exclude up to tt senders derived from excludeRaw.
		ex1 := ProcID(int(excludeRaw) % n)
		ex2 := ProcID(int(excludeRaw/7) % n)
		excluded := map[ProcID]bool{ex1: true}
		if ex2 != ex1 {
			excluded[ex2] = true
		}
		var senders []ProcID
		for i := 0; i < n; i++ {
			if !excluded[ProcID(i)] {
				senders = append(senders, ProcID(i))
			}
		}
		s.WindowSend()
		if err := s.WindowDeliver(s.UniformWindow(senders, nil).SenderRows); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			seen := map[ProcID]int{}
			for _, m := range s.Proc(ProcID(i)).(*echoProc).delivered {
				if excluded[m.From] {
					return false
				}
				seen[m.From]++
				if seen[m.From] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
