package rbc

import (
	"testing"
	"testing/quick"

	"asyncagree/internal/sim"
)

// instID is the one instance id every harness engine serves.
const instID = 5

// all returns the processor IDs 0..n-1.
func all(n int) []sim.ProcID {
	ids := make([]sim.ProcID, n)
	for i := range ids {
		ids[i] = sim.ProcID(i)
	}
	return ids
}

// harness wires n full-system engines together directly (no sim.System
// needed at this layer): messages are routed synchronously until
// quiescence, a broadcast To sim.All as one copy per processor.
type harness struct {
	t       *testing.T
	engines []*Engine
	// drop[from][to] suppresses delivery (models silent/partitioned pairs).
	drop     map[[2]sim.ProcID]bool
	accepted map[sim.ProcID][]Accepted
}

func newHarness(t *testing.T, n, tt int) *harness {
	t.Helper()
	h := &harness{
		t:        t,
		drop:     make(map[[2]sim.ProcID]bool),
		accepted: make(map[sim.ProcID][]Accepted),
	}
	for i := 0; i < n; i++ {
		e, err := NewEngine(sim.ProcID(i), n, tt, instID)
		if err != nil {
			t.Fatal(err)
		}
		h.engines = append(h.engines, e)
	}
	return h
}

// pump routes queued messages until no engine has pending output.
func (h *harness) pump() {
	for {
		var queue []sim.Message
		for _, e := range h.engines {
			queue = append(queue, e.Flush()...)
		}
		if len(queue) == 0 {
			return
		}
		for _, m := range queue {
			if m.To != sim.All {
				h.t.Fatalf("a full-system engine sent %+v, not a broadcast To sim.All", m)
			}
			for q := range h.engines {
				m.To = sim.ProcID(q)
				if !h.drop[[2]sim.ProcID{m.From, m.To}] {
					h.handle(m)
				}
			}
		}
	}
}

// handle delivers m to its receiver and records what it accepted.
func (h *harness) handle(m sim.Message) {
	if a := h.engines[m.To].Handle(m); a != nil {
		h.accepted[m.To] = append(h.accepted[m.To], *a)
	}
}

// TestNewEngineValidation: an engine over the full system 0..n-1 needs
// 3t < n < 65536 and t >= 0, and its self must be one of the processors.
func TestNewEngineValidation(t *testing.T) {
	cases := []struct {
		n, t    int
		wantErr bool
	}{
		{4, 1, false},
		{7, 2, false},
		{3, 1, true}, // n <= 3t
		{6, 2, true},
		{1, 0, false},
		{4, -1, true},
		{0, 0, true},
		{1 << 16, 0, true}, // past what an instance's counts hold
	}
	for _, c := range cases {
		e, err := NewEngine(0, c.n, c.t, instID)
		if (err != nil) != c.wantErr {
			t.Errorf("NewEngine(0, %d, t=%d) err = %v, wantErr %v", c.n, c.t, err, c.wantErr)
		}
		if err == nil && e.EchoThreshold() != (c.n+c.t+2)/2 {
			t.Errorf("n=%d t=%d: echo threshold %d", c.n, c.t, e.EchoThreshold())
		}
	}
	if _, err := NewEngine(4, 4, 1, instID); err == nil {
		t.Error("NewEngine(4, n=4) accepted a self outside 0..3")
	}
}

// TestNewScopedEngineValidation: a member list is a set of processors. A
// duplicate would inflate n and every threshold with it, a negative ID names
// no processor (and no bitset position), and self must be in the group.
func TestNewScopedEngineValidation(t *testing.T) {
	ids := func(q ...sim.ProcID) []sim.ProcID { return q }
	cases := []struct {
		name    string
		self    sim.ProcID
		members []sim.ProcID
		t       int
		wantErr bool
	}{
		{"sorted", 3, ids(1, 3, 70, 200), 1, false},
		{"unsorted", 70, ids(200, 3, 70, 1), 1, false},
		{"duplicate", 3, ids(1, 3, 3, 70), 1, true},
		{"duplicate padding n past 3t", 3, ids(1, 3, 70, 70), 1, true},
		{"negative", 3, ids(-1, 1, 3, 70), 1, true},
		{"self outside", 2, ids(1, 3, 70, 200), 1, true},
		{"n <= 3t", 1, ids(1, 3, 70), 1, true},
	}
	for _, c := range cases {
		e, err := NewScopedEngine(c.self, c.members, c.t, instID)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: NewScopedEngine(%d, %v, %d) err = %v, wantErr %v", c.name, c.self, c.members, c.t, err, c.wantErr)
		}
		if err == nil && e.EchoThreshold() != (len(c.members)+c.t+2)/2 {
			t.Errorf("%s: echo threshold %d for %d members", c.name, e.EchoThreshold(), len(c.members))
		}
	}
}

func TestHonestBroadcastAcceptedByAll(t *testing.T) {
	h := newHarness(t, 4, 1)
	h.engines[0].Broadcast(1, 1, Value{V: 1, D: true})
	h.pump()
	for i := 0; i < 4; i++ {
		acc := h.accepted[sim.ProcID(i)]
		if len(acc) != 1 {
			t.Fatalf("processor %d accepted %d broadcasts, want 1", i, len(acc))
		}
		if acc[0].Value != (Value{V: 1, D: true}) || acc[0].T != (Tag{Sender: 0, ID: instID, Round: 1, Step: 1}) {
			t.Fatalf("processor %d accepted %+v", i, acc[0])
		}
	}
}

func TestAcceptDespiteSilentFaults(t *testing.T) {
	// With t=1 silent processor (id 3), the remaining 3 >= echo threshold
	// ceil((4+1+1)/2)=3 still accept.
	h := newHarness(t, 4, 1)
	for q := 0; q < 4; q++ {
		h.drop[[2]sim.ProcID{3, sim.ProcID(q)}] = true // 3 sends nothing
	}
	h.engines[0].Broadcast(1, 1, Value{V: 1})
	h.pump()
	for i := 0; i < 3; i++ {
		if len(h.accepted[sim.ProcID(i)]) != 1 {
			t.Fatalf("processor %d accepted %d, want 1", i, len(h.accepted[sim.ProcID(i)]))
		}
	}
}

func TestConsistencyUnderEquivocation(t *testing.T) {
	// A Byzantine sender INITs 0 to half and 1 to the other half.
	// No two honest processors may accept different values.
	for n, tt := 7, 2; n <= 13; n, tt = n+3, tt+1 {
		h := newHarness(t, n, tt)
		tag := Tag{Sender: 0, ID: instID}
		for q := 1; q < n; q++ {
			v := Value{V: 0}
			if q > n/2 {
				v = Value{V: 1}
			}
			h.handle(sim.Message{From: 0, To: sim.ProcID(q), Payload: &Msg{T: tag, Kind: KindInit, Value: v}})
		}
		h.pump()
		values := map[Value]bool{}
		for i := 1; i < n; i++ {
			for _, a := range h.accepted[sim.ProcID(i)] {
				values[a.Value] = true
			}
		}
		if len(values) > 1 {
			t.Fatalf("n=%d: honest processors accepted conflicting values %v", n, values)
		}
	}
}

func TestNoAcceptWithoutInit(t *testing.T) {
	// t Byzantine processors alone cannot forge an acceptance: 2t+1 READYs
	// are needed but only t processors will lie.
	h := newHarness(t, 7, 2)
	tag := Tag{Sender: 0, ID: instID}
	// Byzantine 5 and 6 send READY(1, marked) to everyone; no INIT ever.
	for _, byz := range []sim.ProcID{5, 6} {
		for q := 0; q < 7; q++ {
			h.handle(sim.Message{From: byz, To: sim.ProcID(q), Payload: &Msg{T: tag, Kind: KindReady, Value: Value{V: 1, D: true}}})
		}
	}
	h.pump()
	for i := 0; i < 5; i++ {
		if len(h.accepted[sim.ProcID(i)]) != 0 {
			t.Fatalf("honest processor %d accepted a forged broadcast", i)
		}
	}
}

func TestDuplicateMessagesIgnored(t *testing.T) {
	h := newHarness(t, 4, 1)
	tag := Tag{Sender: 1, ID: instID}
	e := h.engines[0]
	// Deliver the same ECHO from the same sender many times: the count must
	// not reach the threshold (3) from one echoing processor.
	for i := 0; i < 10; i++ {
		e.Handle(sim.Message{From: 2, To: 0, Payload: &Msg{T: tag, Kind: KindEcho, Value: Value{V: 1}}})
	}
	if e.PendingOut() {
		t.Fatal("duplicate echoes triggered READY")
	}
}

func TestSecondInitIgnored(t *testing.T) {
	h := newHarness(t, 4, 1)
	tag := Tag{Sender: 1, ID: instID}
	e := h.engines[0]
	e.Handle(sim.Message{From: 1, To: 0, Payload: &Msg{T: tag, Kind: KindInit, Value: Value{V: 0}}})
	e.Flush()
	e.Handle(sim.Message{From: 1, To: 0, Payload: &Msg{T: tag, Kind: KindInit, Value: Value{V: 1}}})
	if e.PendingOut() {
		t.Fatal("second INIT triggered a second ECHO")
	}
}

func TestInitFromWrongSenderIgnored(t *testing.T) {
	h := newHarness(t, 4, 1)
	tag := Tag{Sender: 1, ID: instID}
	e := h.engines[0]
	e.Handle(sim.Message{From: 2, To: 0, Payload: &Msg{T: tag, Kind: KindInit, Value: Value{V: 1}}})
	if e.PendingOut() {
		t.Fatal("INIT from non-designated sender triggered ECHO")
	}
}

func TestReadyAmplification(t *testing.T) {
	// t+1 READYs make an engine send READY even without enough echoes
	// (totality mechanism).
	h := newHarness(t, 7, 2)
	tag := Tag{Sender: 1, ID: instID}
	e := h.engines[0]
	for _, from := range []sim.ProcID{2, 3, 4} { // t+1 = 3
		e.Handle(sim.Message{From: from, To: 0, Payload: &Msg{T: tag, Kind: KindReady, Value: Value{V: 0, D: true}}})
	}
	out := e.Flush()
	if len(out) != 1 || out[0].To != sim.All {
		t.Fatalf("amplified READY as %+v, want one broadcast To sim.All", out)
	}
	for _, m := range out {
		rm, ok := m.Payload.(*Msg) // engines send pooled payload boxes
		if !ok || rm.Kind != KindReady || rm.Value != (Value{V: 0, D: true}) {
			t.Fatalf("unexpected amplification output %+v", m.Payload)
		}
	}
}

// TestForget: ForgetBefore drops the instances of the rounds below its
// argument and keeps the rest. Their blocks go to the pool whole, so what
// the engine retains (RetainedBytes) does not shrink, and Reset keeps it
// too.
func TestForget(t *testing.T) {
	h := newHarness(t, 4, 1)
	h.engines[0].Broadcast(1, 3, Value{V: 1, D: true})
	h.engines[0].Broadcast(2, 1, Value{V: 0})
	h.pump()
	e := h.engines[1]
	before, retained := e.InstanceCount(), e.RetainedBytes()
	if before == 0 {
		t.Fatal("no instances created")
	}
	e.ForgetBefore(2)
	if e.InstanceCount() != before-1 {
		t.Fatalf("ForgetBefore removed %d instances, want 1", before-e.InstanceCount())
	}
	e.ForgetBefore(3)
	if e.InstanceCount() != 0 {
		t.Fatalf("ForgetBefore(3) kept %d instances", e.InstanceCount())
	}
	e.Reset()
	if got := e.RetainedBytes(); got < retained || retained == 0 {
		t.Fatalf("the engine retains %d B after forgetting and a reset, %d B before", got, retained)
	}
}

func TestThresholds(t *testing.T) {
	e, err := NewScopedEngine(0, all(10), 3, instID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.EchoThreshold(), 7; got != want { // ceil((10+3+1)/2)=7
		t.Errorf("EchoThreshold = %d, want %d", got, want)
	}
	if got, want := e.ReadyAmplify(), 4; got != want {
		t.Errorf("ReadyAmplify = %d, want %d", got, want)
	}
	if got, want := e.AcceptThreshold(), 7; got != want {
		t.Errorf("AcceptThreshold = %d, want %d", got, want)
	}
}

func TestConsistencyProperty(t *testing.T) {
	// Property: under arbitrary per-pair message drops of messages from up
	// to t processors, honest acceptances never conflict.
	check := func(dropMask uint16, splitAt uint8) bool {
		const n, tt = 7, 2
		h := newHarness(t, n, tt)
		// Processors 5 and 6 are "faulty": drop an arbitrary subset of
		// their outgoing links (crash/partial-silence behaviours).
		for q := 0; q < n; q++ {
			if dropMask&(1<<q) != 0 {
				h.drop[[2]sim.ProcID{5, sim.ProcID(q)}] = true
			}
			if dropMask&(1<<(q+8)) != 0 {
				h.drop[[2]sim.ProcID{6, sim.ProcID(q)}] = true
			}
		}
		// Byzantine-style split INIT from processor 0 at an arbitrary cut.
		cut := int(splitAt) % n
		tag := Tag{Sender: 0, ID: instID}
		for q := 1; q < n; q++ {
			v := Value{V: 0}
			if q > cut {
				v = Value{V: 1}
			}
			h.handle(sim.Message{From: 0, To: sim.ProcID(q), Payload: &Msg{T: tag, Kind: KindInit, Value: v}})
		}
		h.pump()
		values := map[Value]bool{}
		for i := 1; i < 5; i++ { // honest processors
			for _, a := range h.accepted[sim.ProcID(i)] {
				values[a.Value] = true
			}
		}
		return len(values) <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalityProperty(t *testing.T) {
	// Totality: if any honest processor accepts a broadcast, every honest
	// processor eventually accepts it — even when the sender goes silent
	// right after a partial INIT wave, because READY amplification carries
	// the value the rest of the way.
	check := func(initMask uint8) bool {
		const n, tt = 7, 2
		h := newHarness(t, n, tt)
		tag := Tag{Sender: 0, ID: instID}
		// Sender 0 INITs only to an arbitrary subset, then goes silent.
		for q := 1; q < n; q++ {
			if initMask&(1<<q) == 0 {
				continue
			}
			h.handle(sim.Message{From: 0, To: sim.ProcID(q), Payload: &Msg{T: tag, Kind: KindInit, Value: Value{V: 1}}})
		}
		h.pump()
		anyAccepted, allAccepted := false, true
		for q := 1; q < n; q++ {
			if len(h.accepted[sim.ProcID(q)]) > 0 {
				anyAccepted = true
			} else {
				allAccepted = false
			}
		}
		// Totality: any => all (among the honest processors 1..n-1).
		return !anyAccepted || allAccepted
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
