package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/benor"
	"asyncagree/internal/bracha"
	"asyncagree/internal/core"
	"asyncagree/internal/rng"
	"asyncagree/internal/sim"
)

// Sender-set shapes shapePlan draws; the numbering is part of the corpus.
const (
	shapeNil         = iota // no rows: full delivery
	shapeShared             // one (n-t)-subset for every receiver (System.UniformWindow)
	shapePerReceiver        // a fresh subset per receiver, some rows all-ones
	shapeIllegal            // per-receiver, with one illegal row in one window
	shapeSplitVote          // adversary.SplitVote's plan, from the batch or the columns
	shapeCount
)

// Plan forms shapePlan submits its sender rows in; the numbering is part of
// the corpus.
const (
	formOwnRows     = iota // filled in place in the System's own rows
	formForeignRows        // a copy in a slice of the planner's, copied in
	formCount
)

// shapePlan plans windows from its own seeded stream alone — never from the
// batch or the columns — so the same seed plans the same windows on every
// path: sender rows of the chosen shape, submitted in the chosen form, plus
// up to t resets. The split-vote shape is the exception: it hands planning to
// split, which reads the batch on the message path and the columns on the
// columnar path and must plan the same windows from either.
type shapePlan struct {
	r     *rng.Source
	split *adversary.SplitVote
	shape int
	form  int
	perm  []int
}

// subset draws a uniform k-subset of the n processors by the reference
// definition, a full PermInto shuffle's first k entries, in ascending order.
func (p *shapePlan) subset(n, k int) []sim.ProcID {
	if len(p.perm) != n {
		p.perm = make([]int, n)
	}
	p.r.PermInto(p.perm)
	out := make([]sim.ProcID, 0, k)
	for _, q := range p.perm[:k] {
		out = append(out, sim.ProcID(q))
	}
	slices.Sort(out)
	return out
}

// fillRow sets row to the senders of set, or to all n senders for a nil set.
func fillRow(row []uint64, n int, set []sim.ProcID) {
	clear(row)
	if set == nil {
		for q := 0; q < n; q++ {
			row[q>>6] |= 1 << (uint(q) & 63)
		}
	}
	for _, q := range set {
		row[q>>6] |= 1 << (uint(q) & 63)
	}
}

func (p *shapePlan) plan(s *sim.System) sim.Window {
	n, t, words := s.N(), s.T(), s.RowWords()
	var w sim.Window
	switch p.shape {
	case shapeShared:
		w = s.UniformWindow(p.subset(n, n-t), nil)
	case shapePerReceiver, shapeIllegal:
		w.SenderRows = s.SenderRows()
		row := func(i int) []uint64 { return w.SenderRows[i*words : (i+1)*words] }
		for i := 0; i < n; i++ {
			var set []sim.ProcID // k == n admits everyone
			if k := n - p.r.Intn(t+2); k < n {
				set = p.subset(n, max(k, n-t))
			}
			fillRow(row(i), n, set)
		}
		if p.shape == shapeIllegal && s.Windows() == 2 {
			r := row(p.r.Intn(n))
			if n&63 == 0 || (t > 0 && p.r.Bit() == 0) {
				fillRow(r, n, p.subset(n, n-t-1)) // one sender short
			} else {
				r[words-1] |= 1 << (uint(n) & 63) // a stray tail bit: no such sender
			}
		}
	}
	w.Resets = p.subset(n, p.r.Intn(t+1))
	return w
}

// submit hands w's rows over in the chosen form: where the planner filled
// them, or as a copy the System has to copy in.
func (p *shapePlan) submit(w sim.Window) sim.Window {
	if p.form == formForeignRows && w.SenderRows != nil {
		w.SenderRows = slices.Clone(w.SenderRows)
	}
	return w
}

func (p *shapePlan) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	var w sim.Window
	if p.shape == shapeSplitVote {
		w = p.split.PlanDelivery(s, batch)
	} else {
		w = p.plan(s)
	}
	return p.submit(w)
}

func (p *shapePlan) PlansColumnar() bool { return true }

func (p *shapePlan) PlanDeliveryColumnar(s *sim.System, cols *sim.ColumnSet) sim.Window {
	if p.shape == shapeSplitVote {
		return p.submit(p.split.PlanDeliveryColumnar(s, cols))
	}
	return p.submit(p.plan(s))
}

// FuzzWindowPaths is the differential check over every route through a
// window: any worker count, the message or the columnar representation,
// under any sender-set shape in any plan form, must reproduce the inline
// message run under the System's own rows — its first error, RunResult and
// final configuration, and (where the path materializes messages at all) its
// event feed. That reference run is itself held to orderOracle's comparison
// sort window by window, so every input checks the counting sort too. The
// algorithm is an input like the rest (algRaw mod 3: 0 core at t < n/6, 1
// Ben-Or at t < n/2, 2 Bracha at t < n/3 and n <= 31), so both clients of the
// columnar scan are held to their own per-message Deliver, and Bracha's n²
// copies per broadcast, stored straight into the ring by the inline walk and
// merged from shard scratch at 2 and 4 workers, are held to each other; Bracha
// has no columns, so it always runs on messages. The split-vote shape plans
// with adversary.SplitVote over the algorithm's classifier, from the batch on
// the message path and from the columns on the columnar one, so the columnar
// classification is held to the batch's too. The seeds are the word-boundary
// sizes 63, 64, 65, 127 and 128 (the bitset scan's word loop, cross-word
// frontiers and partial last words) and the uneven-shard sizes 70 and 96 for
// core, then the word-boundary sizes again for Ben-Or, all on own rows; then
// both forms under every shape that has rows to submit, at the word-boundary
// sizes for both algorithms; then Bracha at 13:4, 18:2 and 27:3 under every
// shape. Those seed loops run over every shape, the split-vote one included.
// The last seeds put core and Ben-Or at 192:31 (three sender words) on the
// columnar path under full delivery and per-receiver sets, so a wait
// crosses in the third word after two words applied in bulk.
func FuzzWindowPaths(f *testing.F) {
	for i, n := range []int{63, 64, 65, 127, 128, 70, 96} {
		for shape := 0; shape < shapeCount; shape++ {
			f.Add(uint8(n), uint8(n/6-1), uint64(11+i), uint8(shape+i), (shape+i)%2 == 0, uint8(shape), uint8(0), uint8(formOwnRows))
		}
	}
	for i, n := range []int{63, 64, 65, 127, 128} {
		for shape := 0; shape < shapeCount; shape++ {
			f.Add(uint8(n), uint8(n/3), uint64(41+i), uint8(shape+i), (shape+i)%2 == 0, uint8(shape), uint8(1), uint8(formOwnRows))
		}
	}
	for i, n := range []int{63, 64, 65, 127, 128} {
		for shape := shapeShared; shape < shapeCount; shape++ {
			for form := formOwnRows; form < formCount; form++ {
				k := shape + form + i
				f.Add(uint8(n), uint8(n/6-1), uint64(71+i), uint8(k), k%2 == 0, uint8(shape), uint8(0), uint8(form))
				f.Add(uint8(n), uint8(n/3), uint64(91+i), uint8(k), k%2 == 1, uint8(shape), uint8(1), uint8(form))
			}
		}
	}
	for i, nt := range [][2]int{{13, 4}, {18, 2}, {27, 3}} {
		for shape := 0; shape < shapeCount; shape++ {
			f.Add(uint8(nt[0]), uint8(nt[1]), uint64(121+i), uint8(shape+i), false, uint8(shape), uint8(2), uint8((shape+i)%formCount))
		}
	}
	for i, alg := range []uint8{0, 1} {
		for _, shape := range []int{shapeNil, shapePerReceiver} {
			f.Add(uint8(192), uint8(31), uint64(151+i), uint8(shape+i), true, uint8(shape), alg, uint8(formOwnRows))
		}
	}
	f.Fuzz(func(t *testing.T, nRaw, tRaw uint8, seed uint64, workersRaw uint8, columnar bool, shapeRaw, algRaw, formRaw uint8) {
		n := max(int(nRaw)%193, 7) // 7..192, the seeds' sizes unchanged
		var ft int
		var factory func(sim.ProcID, sim.Bit) sim.Process
		classify, voteCap := coreClassify, 0 // Bracha's traffic carries no votes core's classifier sees
		switch algRaw % 3 {
		case 0:
			ft = int(tRaw) % ((n + 5) / 6)
			th, err := core.DefaultThresholds(n, ft)
			if err != nil {
				t.Skip(err)
			}
			factory = core.NewFactory(n, ft, th)
			voteCap = th.T3 - 1
		case 1:
			ft = int(tRaw) % ((n + 1) / 2) // 2*ft < n
			factory = benor.NewFactory(n, ft)
			classify, voteCap = benorClassify, n/2
		case 2:
			n = max(int(nRaw)%32, 7)       // n^3 messages a window: 7..31
			ft = int(tRaw) % ((n + 2) / 3) // 3*ft < n
			factory = bracha.NewFactory(n, ft)
			columnar = false
		}
		workers := []int{1, 2, 4}[int(workersRaw)%3]
		shape := int(shapeRaw) % shapeCount
		form := int(formRaw) % formCount

		run := func(workers int, columnar bool, form int, oracle bool) (events []string, res sim.RunResult, snap []string, err error) {
			s, err := sim.New(sim.Config{
				N: n, T: ft, Seed: seed, Inputs: splitInputs(n), NewProcess: factory,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.SetShardWorkers(workers)
			s.SetColumnar(columnar)
			var adv sim.WindowAdversary = &shapePlan{r: rng.New(seed), split: adversary.NewSplitVote(classify, voteCap),
				shape: shape, form: form}
			if columnar != s.ColumnarPlanned(adv) {
				t.Fatalf("columnar path planned = %v, want %v", !columnar, columnar)
			}
			observe := func(sim.Event) {}
			if oracle {
				o := &orderOracle{inner: adv, t: t}
				adv, observe = o, o.observe
			}
			if !columnar {
				// An observer forces the message path, so only that one has a
				// feed to compare.
				s.OnEvent = func(ev sim.Event) {
					events = append(events, fmt.Sprintf("%d w%d p%d %d>%d#%d d%d v%d",
						ev.Kind, ev.Window, ev.Proc, ev.Msg.From, ev.Msg.To, ev.Msg.ID, ev.Msg.Depth, ev.Value))
					observe(ev)
				}
			}
			res, err = s.RunWindows(adv, 6)
			s.SetShardWorkers(1) // stop the pool
			return events, res, s.ConfigurationSnapshot(), err
		}
		wantEvents, wantRes, wantSnap, wantErr := run(1, false, formOwnRows, true)
		events, res, snap, err := run(workers, columnar, form, false)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("first error %v, the inline message run had %v", err, wantErr)
		}
		if res != wantRes {
			t.Fatalf("results diverged:\ngot  %+v\nwant %+v", res, wantRes)
		}
		if !slices.Equal(snap, wantSnap) {
			t.Fatalf("configurations diverged:\ngot  %q\nwant %q", snap, wantSnap)
		}
		if !columnar && !slices.Equal(events, wantEvents) {
			t.Fatalf("event feeds diverged (%d events, want %d)", len(events), len(wantEvents))
		}
	})
}

func splitInputs(n int) []sim.Bit {
	in := make([]sim.Bit, n)
	for i := range in {
		in[i] = sim.Bit(i % 2)
	}
	return in
}

// coreClassify and benorClassify are the registry descriptors' vote
// classifiers, which this package cannot import.
func coreClassify(m sim.Message) adversary.VoteInfo {
	if _, v, ok := core.ExtractVote(m); ok {
		return adversary.VoteInfo{HasValue: true, Value: v}
	}
	return adversary.VoteInfo{}
}

func benorClassify(m sim.Message) adversary.VoteInfo {
	if _, _, v, ok := benor.ExtractVote(m); ok {
		return adversary.VoteInfo{HasValue: true, Value: v}
	}
	return adversary.VoteInfo{}
}
