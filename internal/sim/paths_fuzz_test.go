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
	shapeNil         = iota // nil Senders: full delivery
	shapeShared             // one (n-t)-subset slice handed to every receiver
	shapePerReceiver        // a fresh subset per receiver, some rows nil
	shapeIllegal            // per-receiver, with one illegal set in one window
	shapeSplitVote          // adversary.SplitVote's plan, from the batch or the columns
	shapeCount
)

// Plan forms shapePlan submits its sender sets in; the numbering is part of
// the corpus.
const (
	formLists       = iota // Window.Senders
	formOwnRows            // Window.SenderRows, filled in place in the System's own rows
	formForeignRows        // Window.SenderRows in a slice of the planner's, copied in
	formCount
)

// shapePlan plans windows from its own seeded stream alone — never from the
// batch or the columns — so the same seed plans the same windows on every
// path: sender sets of the chosen shape, submitted in the chosen form, plus
// up to t resets. The split-vote shape is the exception: it hands planning to
// split, which reads the batch on the message path and the columns on the
// columnar path and must plan the same windows from either. With disown set
// it turns each just-sent batch into a hand-built one, as orderProbe does.
type shapePlan struct {
	r      *rng.Source
	split  *adversary.SplitVote
	shape  int
	form   int
	disown bool
	perm   []int
}

func (p *shapePlan) subset(n, k int) []sim.ProcID {
	if len(p.perm) != n {
		p.perm = make([]int, n)
	}
	out := make([]sim.ProcID, 0, k)
	for _, q := range p.r.SubsetInto(p.perm, k) {
		out = append(out, sim.ProcID(q))
	}
	return out
}

func (p *shapePlan) plan(s *sim.System) sim.Window {
	n, t := s.N(), s.T()
	var w sim.Window
	switch p.shape {
	case shapeShared:
		w = sim.UniformWindow(n, p.subset(n, n-t), nil)
	case shapePerReceiver, shapeIllegal:
		w.Senders = make([][]sim.ProcID, n)
		for i := range w.Senders {
			if k := n - p.r.Intn(t+2); k < n { // k == n leaves the row nil
				w.Senders[i] = p.subset(n, max(k, n-t))
			}
		}
		if p.shape == shapeIllegal && s.Windows() == 2 {
			i := p.r.Intn(n)
			if t > 0 && p.r.Bit() == 0 {
				w.Senders[i] = p.subset(n, n-t-1) // one sender short
			} else {
				w.Senders[i] = append(p.subset(n, n-t), sim.ProcID(n)) // no such sender
			}
		}
	}
	w.Resets = p.subset(n, p.r.Intn(t+1))
	return w
}

// submit puts w's listed sets in the chosen form. As rows, a nil set is the
// all-senders row, a sender past n a stray bit in the last word's tail. A
// sender no row has a bit for (n itself, at a multiple of 64) leaves the
// window listed: only a list can say it.
func (p *shapePlan) submit(s *sim.System, w sim.Window) sim.Window {
	if p.form == formLists || w.Senders == nil {
		return w
	}
	n, words := s.N(), s.RowWords()
	rows := s.SenderRows()
	if p.form == formForeignRows {
		rows = make([]uint64, len(rows))
	}
	for i, set := range w.Senders {
		row := rows[i*words : (i+1)*words]
		clear(row)
		if set == nil {
			for q := 0; q < n; q++ {
				row[q>>6] |= 1 << (uint(q) & 63)
			}
		}
		for _, q := range set {
			if int(q) >= words*64 {
				return w
			}
			row[q>>6] |= 1 << (uint(q) & 63)
		}
	}
	return sim.Window{SenderRows: rows, Resets: w.Resets}
}

func (p *shapePlan) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	var w sim.Window
	if p.shape == shapeSplitVote {
		w = p.split.PlanDelivery(s, batch)
	} else {
		w = p.plan(s)
	}
	w = p.submit(s, w)
	if p.disown {
		s.DisownBatch()
	}
	return w
}

func (p *shapePlan) PlansColumnar() bool { return true }

func (p *shapePlan) PlanDeliveryColumnar(s *sim.System, cols *sim.ColumnSet) sim.Window {
	if p.shape == shapeSplitVote {
		return p.submit(s, p.split.PlanDeliveryColumnar(s, cols))
	}
	return p.submit(s, p.plan(s))
}

// FuzzWindowPaths is the differential check over every route through a
// window: any worker count, the message or the columnar representation, the
// System's own batch or a hand-built one, under any sender-set shape in any
// plan form, must reproduce the inline message run on the own batch under
// listed sets — its first error, RunResult and final configuration, and
// (where the path materializes messages at all) its event feed. The
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
// core, then the word-boundary sizes again for Ben-Or, all listed; then both
// row forms under every shape that has sets to submit, at the word-boundary
// sizes for both algorithms; then Bracha at 13:4, 18:2 and 27:3 under every
// shape. Every seed loop runs over every shape, the split-vote one included.
func FuzzWindowPaths(f *testing.F) {
	for i, n := range []int{63, 64, 65, 127, 128, 70, 96} {
		for shape := 0; shape < shapeCount; shape++ {
			f.Add(uint8(n), uint8(n/6-1), uint64(11+i), uint8(shape+i), (shape+i)%2 == 0, shape%2 == 1, uint8(shape), uint8(0), uint8(formLists))
		}
	}
	for i, n := range []int{63, 64, 65, 127, 128} {
		for shape := 0; shape < shapeCount; shape++ {
			f.Add(uint8(n), uint8(n/3), uint64(41+i), uint8(shape+i), (shape+i)%2 == 0, shape%2 == 1, uint8(shape), uint8(1), uint8(formLists))
		}
	}
	for i, n := range []int{63, 64, 65, 127, 128} {
		for shape := shapeShared; shape < shapeCount; shape++ {
			for form := formOwnRows; form < formCount; form++ {
				k := shape + form + i
				f.Add(uint8(n), uint8(n/6-1), uint64(71+i), uint8(k), k%2 == 0, shape%2 == 1, uint8(shape), uint8(0), uint8(form))
				f.Add(uint8(n), uint8(n/3), uint64(91+i), uint8(k), k%2 == 1, shape%2 == 0, uint8(shape), uint8(1), uint8(form))
			}
		}
	}
	for i, nt := range [][2]int{{13, 4}, {18, 2}, {27, 3}} {
		for shape := 0; shape < shapeCount; shape++ {
			f.Add(uint8(nt[0]), uint8(nt[1]), uint64(121+i), uint8(shape+i), false, (shape+i)%2 == 1, uint8(shape), uint8(2), uint8((shape+i)%formCount))
		}
	}
	f.Fuzz(func(t *testing.T, nRaw, tRaw uint8, seed uint64, workersRaw uint8, columnar, disown bool, shapeRaw, algRaw, formRaw uint8) {
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

		run := func(workers int, columnar, disown bool, form int) (events []string, res sim.RunResult, snap []string, err error) {
			s, err := sim.New(sim.Config{
				N: n, T: ft, Seed: seed, Inputs: splitInputs(n), NewProcess: factory,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.SetShardWorkers(workers)
			s.SetColumnar(columnar)
			adv := &shapePlan{r: rng.New(seed), split: adversary.NewSplitVote(classify, voteCap),
				shape: shape, form: form, disown: disown}
			if columnar != s.ColumnarPlanned(adv) {
				t.Fatalf("columnar path planned = %v, want %v", !columnar, columnar)
			}
			if !columnar {
				// An observer forces the message path, so only that one has a
				// feed to compare.
				s.OnEvent = func(ev sim.Event) {
					events = append(events, fmt.Sprintf("%d w%d p%d %d>%d#%d d%d v%d",
						ev.Kind, ev.Window, ev.Proc, ev.Msg.From, ev.Msg.To, ev.Msg.ID, ev.Msg.Depth, ev.Value))
				}
			}
			res, err = s.RunWindows(adv, 6)
			s.SetShardWorkers(1) // stop the pool
			return events, res, s.ConfigurationSnapshot(), err
		}
		wantEvents, wantRes, wantSnap, wantErr := run(1, false, false, formLists)
		events, res, snap, err := run(workers, columnar, disown, form)
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
