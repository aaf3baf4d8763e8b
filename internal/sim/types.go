// Package sim implements the asynchronous message-passing substrate of
// Lewko & Lewko, "On the Complexity of Asynchronous Agreement Against
// Powerful Adversaries" (PODC 2013), Section 2.
//
// The model: n processors with unique identities 1..n (we use 0..n-1),
// each with an input bit, a write-once output bit, and a private source of
// random bits. Processors communicate over dedicated authenticated channels
// (the recipient always correctly identifies the sender). An execution is a
// sequence of fine-grained steps of three kinds:
//
//   - a sending step lets a processor place a batch of messages into the
//     message buffer, as a complete response to prior events (a second
//     sending step with no intervening receipt or reset is a no-op);
//   - a receiving step delivers one buffered message to its recipient, which
//     then performs local computation — this is the only step that may
//     consume local randomness;
//   - a resetting step erases a processor's memory except for its input bit,
//     output bit, identity, and a reset counter (so resets are internally
//     detectable).
//
// The adversary (package adversary) controls the order and nature of steps
// with full information; the delivery discipline of window mode — which
// ≥ n−t senders each receiver admits — can also be supplied separately by a
// pluggable scheduler (package sched). Two execution modes are provided:
//
//   - window mode (System.RunWindows) structures the execution as adjacent
//     disjoint acceptable windows per Definition 1 of the paper: all n
//     processors send, each processor i receives the just-sent messages from
//     a set S_i of >= n-t senders, then at most t resets occur. Running time
//     is the number of acceptable windows before the first decision.
//   - step mode (System.StepSend / StepDeliver / ...) exposes raw steps for
//     the classical asynchronous crash model of Section 5. Running time is
//     the longest message chain, tracked by per-message depth counters.
package sim

import (
	"fmt"
	"slices"
)

// ProcID identifies a processor; valid values are 0..n-1.
type ProcID int

// Bit is a binary value (0 or 1). Inputs, outputs and most protocol values
// are bits, matching the binary agreement problem of the paper.
type Bit uint8

const (
	// Zero is the bit 0.
	Zero Bit = 0
	// One is the bit 1.
	One Bit = 1
)

// Message is a single point-to-point message. From/To are authenticated by
// the channel model: a Process can trust Message.From.
type Message struct {
	// ID is a unique, monotonically increasing sequence number assigned by
	// the System when the message enters the buffer.
	ID int64
	// From is the sender, To the recipient.
	From, To ProcID
	// Depth is the message-chain depth: 1 + the maximum depth of any message
	// the sender had received before sending this one. The longest message
	// chain preceding a decision is the Section 5 running-time measure.
	Depth int
	// Payload is the algorithm-specific content.
	Payload any
}

// Process is the paper's notion of an algorithm at one processor: a state
// machine whose only randomized transition is message receipt.
//
// Implementations must maintain an internal outbox: Deliver (and
// construction) queue outgoing messages, Send flushes them. This makes a
// sending step automatically "a complete response to prior events" and
// idempotent, as the model requires.
//
// Send and Deliver may touch only their own processor's state (payloads
// shared across processors are read-only once sent): with worker goroutines
// (SetShardWorkers) the System calls them on distinct processors
// concurrently.
type Process interface {
	// ID returns the processor identity.
	ID() ProcID
	// Input returns the processor's fixed input bit.
	Input() Bit
	// Output returns the write-once output bit and whether it has been
	// written. Once ok is true the value must never change.
	Output() (Bit, bool)
	// Send returns the messages queued since the last Send, clearing the
	// queue. A second call with no intervening Deliver/Reset returns an
	// empty batch. Implementations may recycle the returned slice's backing
	// array: it is valid only until the next Deliver/Reset, and callers
	// (the System consumes it immediately) must not retain it.
	Send() []Message
	// Deliver processes a received message using local state and the
	// provided randomness source. This is the only randomized transition.
	Deliver(m Message, r RandSource)
	// Reset erases memory except input, output, identity, and an internal
	// reset counter. A reset processor must refrain from sending until it
	// has resynchronized (algorithm-specific).
	Reset()
	// Snapshot returns a canonical string encoding of the local state, used
	// for configuration Hamming distance in the lower-bound machinery and
	// for traces. It must be a pure function of the state.
	Snapshot() string
}

// Recycler is an optional Process extension for trial reuse. Recycle rewinds
// the process to the state a fresh construction with the given input bit
// would produce — round counters, tallies, the outbox, and the write-once
// output must all rewind — while retaining allocated structures (maps,
// pooled tallies, payload boxes) so a recycled trial allocates (near)
// nothing. Identity and sizing parameters (n, t, thresholds) persist: a
// process is only ever recycled into a trial of the same shape.
//
// System.Recycle uses this hook; processes that do not implement it are
// rebuilt through the system's process factory instead.
type Recycler interface {
	Recycle(input Bit)
}

// PayloadReclaimer is an optional Process extension for payload-box reuse in
// window mode. Once an acceptable window completes, every message of its
// just-sent batch is dead — delivered or dropped, never to be read again —
// so the System hands each batch payload back to its sender via
// ReclaimPayload, letting the sender pool heap-boxed payloads instead of
// leaking one allocation per broadcast to the garbage collector.
//
// Contract: implementations must use comparable payloads (typically a
// pointer to a pooled box shared by all copies of one broadcast — the System
// deduplicates consecutive batch entries carrying the same payload, so a
// shared box is reclaimed once). ReclaimPayload must ignore payload types it
// does not own. Step mode never reclaims; a pooling process then simply
// allocates fresh boxes, which is always safe.
type PayloadReclaimer interface {
	ReclaimPayload(payload any)
}

// RandSource is the subset of *rng.Source a Process may use. Defined as an
// interface here so that algorithm packages depend only on sim.
type RandSource interface {
	// Bit returns a uniformly random bit.
	Bit() uint8
	// Intn returns a uniformly random int in [0, n).
	Intn(n int) int
	// Uint64 returns 64 uniformly random bits.
	Uint64() uint64
}

// StepKind enumerates the fine-grained step types of Section 2, plus the
// crash step used by the Section 5 model.
type StepKind int

const (
	// StepSend is a sending step by a processor.
	StepSend StepKind = iota + 1
	// StepDeliver is a receiving step delivering one buffered message.
	StepDeliver
	// StepReset is a resetting step erasing a processor's memory.
	StepReset
	// StepCrash permanently halts a processor (classical crash model).
	StepCrash
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case StepSend:
		return "send"
	case StepDeliver:
		return "deliver"
	case StepReset:
		return "reset"
	case StepCrash:
		return "crash"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step is one fine-grained step chosen by a step-mode adversary.
type Step struct {
	Kind StepKind
	// Proc is the acting processor for send/reset/crash steps.
	Proc ProcID
	// MsgID identifies the buffered message for deliver steps.
	MsgID int64
}

// Window describes one acceptable window (Definition 1): after all n
// processors take sending steps, each processor i receives the just-sent
// messages from its sender set (each of size >= n-t), and then the
// processors in Resets (at most t of them) are reset.
//
// The sender sets come in one of two forms. Senders lists them, the form of
// hand-built windows and of planners that show every receiver one shared
// set. SenderRows is the form the System delivers from, for planners that
// think in sets and draw a different one per receiver. A window carries at
// most one form (neither: all senders for everyone); one with both is
// rejected as ErrBadWindow, never resolved by precedence.
type Window struct {
	// Senders[i] lists the senders whose just-sent messages processor i
	// receives, ascending. A nil entry means "all n senders"; a nil Senders
	// slice means all n senders for every receiver (full delivery).
	Senders [][]ProcID
	// SenderRows is the receiver-major bitset of the same sets: n rows of
	// System.RowWords() words, bit q of row i set iff processor i receives
	// from sender q, bits at n and above clear. A planner that fills the
	// System's own rows (System.SenderRows) is validated where they lie;
	// any other slice is copied in.
	SenderRows []uint64
	// Resets lists the processors reset at the end of the window.
	Resets []ProcID
}

// Admits reports whether, under this window of an n-processor system,
// receiver gets sender's just-sent messages, whichever form the plan is in.
func (w Window) Admits(n int, receiver, sender ProcID) bool {
	if w.SenderRows != nil {
		words := (n + 63) / 64
		return w.SenderRows[int(receiver)*words+int(sender)>>6]&(1<<(uint(sender)&63)) != 0
	}
	if w.Senders == nil || w.Senders[receiver] == nil {
		return true
	}
	return slices.Contains(w.Senders[receiver], sender)
}

// UniformWindow returns a Window delivering from the same sender set s to
// every one of the n processors — the R, S, S, ..., S shape used throughout
// Section 4 of the paper.
func UniformWindow(n int, senders []ProcID, resets []ProcID) Window {
	ss := make([][]ProcID, n)
	for i := range ss {
		ss[i] = senders
	}
	return Window{Senders: ss, Resets: resets}
}
