// Command agree runs a single agreement execution with a chosen algorithm,
// adversary, delivery scheduler, and seed, and prints the outcome
// (optionally with a full step trace). Algorithms, adversaries, schedulers,
// and input patterns are resolved through the shared scenario registry, so
// every registered name works here without CLI changes; `agree -list`
// prints the live inventory.
//
// Usage:
//
//	agree -alg core -n 24 -t 3 -inputs split -adversary splitvote -seed 1 -max-windows 100000
//	agree -alg bracha -n 7 -t 2 -inputs ones -adversary subsets -trace
//	agree -alg core -n 24 -t 3 -adversary storm -sched laggard
//	agree -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"asyncagree"
	"asyncagree/internal/registry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "agree:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	algNames := make([]string, 0, 5)
	for _, a := range asyncagree.Algorithms() {
		algNames = append(algNames, string(a))
	}
	fs := flag.NewFlagSet("agree", flag.ContinueOnError)
	var (
		alg        = fs.String("alg", "core", "algorithm: "+strings.Join(algNames, " | "))
		n          = fs.Int("n", 24, "number of processors")
		t          = fs.Int("t", 3, "fault budget t")
		inputs     = fs.String("inputs", "split", "input pattern: "+strings.Join(asyncagree.InputPatterns(), " | "))
		advName    = fs.String("adversary", "full", "adversary: "+strings.Join(asyncagree.Adversaries(), " | "))
		schedName  = fs.String("sched", "adversary", "delivery scheduler: "+strings.Join(asyncagree.Schedulers(), " | "))
		seed       = fs.Uint64("seed", 1, "random seed (same seed + same flags = same execution)")
		maxWindows = fs.Int("max-windows", 100000, "window budget")
		trace      = fs.Bool("trace", false, "print every simulator event")
		list       = fs.Bool("list", false, "print the registered algorithms, adversaries, schedulers, and input patterns")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		registry.WriteInventory(os.Stdout)
		return nil
	}

	in, err := asyncagree.PatternInputs(*inputs, *n, *seed)
	if err != nil {
		return err
	}

	if *maxWindows < 0 {
		return fmt.Errorf("max-windows must be >= 0, got %d", *maxWindows)
	}
	cfg := asyncagree.Config{
		Algorithm: asyncagree.Algorithm(*alg),
		N:         *n, T: *t,
		Inputs: in,
		Seed:   *seed,
	}
	sys, err := asyncagree.New(cfg)
	if err != nil {
		return err
	}
	adv, err := asyncagree.NewAdversary(*advName, cfg)
	if err != nil {
		return err
	}
	sch, err := asyncagree.NewScheduler(*schedName, cfg)
	if err != nil {
		return err
	}
	// Explicit single runs may construct triples the sweep matrix skips —
	// allowed for experimentation, but say so rather than letting the
	// output header imply the standard claims cover the run.
	promise, why, err := registry.Pair(*alg, *advName, *schedName)
	if err != nil {
		return err
	}
	if promise == registry.Unpaired {
		fmt.Fprintf(os.Stderr,
			"agree: note: the sweep matrix would skip algorithm %q with adversary %q and scheduler %q (%s); running anyway\n",
			*alg, *advName, *schedName, why)
	}
	adv = asyncagree.Schedule(adv, sch)

	if *trace {
		installTracer(sys)
	}

	res, err := sys.RunWindows(adv, *maxWindows)
	if err != nil {
		return err
	}

	fmt.Printf("algorithm        %s (n=%d, t=%d, inputs=%s, adversary=%s, sched=%s, seed=%d)\n",
		*alg, *n, *t, *inputs, *advName, *schedName, *seed)
	fmt.Printf("windows          %d\n", res.Windows)
	if res.FirstDecision >= 0 {
		fmt.Printf("first decision   window %d (value %d)\n", res.FirstDecision, res.Decision)
	} else {
		fmt.Printf("first decision   none within budget\n")
	}
	fmt.Printf("all decided      %v (%d/%d)\n", res.AllDecided, sys.DecidedCount(), *n)
	fmt.Printf("agreement        %v\n", res.Agreement)
	fmt.Printf("validity         %v\n", res.Validity)
	fmt.Printf("max chain depth  %d\n", res.MaxChainDepth)
	return safetyVerdict(*alg, res)
}

// safetyVerdict is the exit status of a finished run. A violation of
// agreement or validity is an error only for an algorithm whose descriptor
// says safety holds with probability 1; for the others (committee) it is a
// measured outcome, already printed, exactly as Sweep.SafetyViolations
// counts it. The error does not call the violation a bug: single runs may
// pair an algorithm with an adversary outside its fault model (Ben-Or under
// a reset storm), which the sweep matrix never does.
func safetyVerdict(algName string, res asyncagree.RunResult) error {
	if res.Agreement && res.Validity {
		return nil
	}
	alg, err := registry.LookupAlgorithm(algName)
	if err != nil {
		return err
	}
	if !alg.SafetyCertain {
		return nil
	}
	return fmt.Errorf("safety violated: %s guarantees agreement and validity against any adversary within its fault model", algName)
}

func installTracer(sys *asyncagree.System) {
	sys.OnEvent = func(ev asyncagree.Event) {
		switch ev.Kind {
		case asyncagree.EvWindow:
			fmt.Printf("-- window %d complete --\n", ev.Window)
		case asyncagree.EvSend:
			fmt.Printf("w%04d send    %d -> %d  %v\n", ev.Window, ev.Msg.From, ev.Msg.To, ev.Msg.Payload)
		case asyncagree.EvDeliver:
			fmt.Printf("w%04d deliver %d -> %d  %v\n", ev.Window, ev.Msg.From, ev.Msg.To, ev.Msg.Payload)
		case asyncagree.EvReset:
			fmt.Printf("w%04d RESET   processor %d\n", ev.Window, ev.Proc)
		case asyncagree.EvCrash:
			fmt.Printf("w%04d CRASH   processor %d\n", ev.Window, ev.Proc)
		case asyncagree.EvDecide:
			fmt.Printf("w%04d DECIDE  processor %d -> %d\n", ev.Window, ev.Proc, ev.Value)
		}
	}
}
