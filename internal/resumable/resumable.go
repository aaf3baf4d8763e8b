// Package resumable is the harness under the repository's streaming,
// resumable runs: the sweep (cmd/sweep), the adversary search (cmd/search)
// and the daemon's instance journal (internal/service) all keep an
// index-ordered record log that a later process picks up where a killed or
// interrupted one stopped.
//
// Two layers live here. OpenLog is the one file opener: rewrite the verified
// prefix atomically (healing whatever a crash tore), reopen for append, and
// stack fault injection under bounded retry on the append path. On top of it
// the CLIs share one flag block (Register), one signal handler
// (InstallInterrupt), one session (Open: validate, load and salvage the
// checkpoint, open the -out and checkpoint sinks, build the stop hook) and
// one resume hint, so cmd/sweep and cmd/search keep only their own axes,
// tables and exit rules.
package resumable

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"asyncagree/internal/faultinject"
	"asyncagree/internal/registry"
	"asyncagree/internal/retry"
)

// OpenLog opens the record log at path for appending after prefix. The file
// is first replaced atomically (temp file + rename, so a crash mid-rewrite
// never loses the old file) by the header line — a checkpoint signature, or
// "" for a bare export — and the prefix records written through
// newSink(w, false); that heals any torn tail of the run being resumed. The
// returned sink, newSink(w, len(prefix) > 0), appends through the hardened
// writer: the raw file, then the injected-failure writer (chaos testing),
// then the retrying writer. Retry must sit between the failure source and
// the sink's own buffer (which latches its first error forever), so a
// transient failure is absorbed invisibly and only an exhausted retry budget
// reaches the sink — where the record pipeline drops it and reports the
// degradation. The rewrite itself is not retried: it already fails safe.
// Close the file after the sink's final Flush.
func OpenLog[R any](path, header string, prefix []R, newSink func(w io.Writer, appending bool) registry.Sink[R],
	pol retry.Policy, failures *faultinject.WriteFailures) (registry.Sink[R], *os.File, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, nil, err
	}
	err = func() error {
		if header != "" {
			if err := registry.WriteCheckpointHeader(tmp, header); err != nil {
				return err
			}
		}
		sink := newSink(tmp, false)
		for _, rec := range prefix {
			if err := sink.Consume(rec); err != nil {
				return err
			}
		}
		return sink.Flush()
	}()
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return newSink(retry.NewWriter(failures.Writer(f), pol), len(prefix) > 0), f, nil
}

// InstallInterrupt converts the first SIGINT or SIGTERM into a clean-stop
// request (the run flushes its sinks and checkpoint, then exits with a
// resume hint); a second signal falls back to the default abrupt exit.
// SIGTERM gets the same treatment as Ctrl-C because container runtimes and
// batch schedulers terminate with it — losing the resume invocation to an
// orchestrated shutdown would defeat the checkpoint contract.
func InstallInterrupt() func() bool {
	var stopped atomic.Bool
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopped.Store(true)
		signal.Stop(ch)
	}()
	return stopped.Load
}

// Flags is the flag block every resumable CLI shares, filled by Register.
// The fields a command reads itself are exported; Open consumes the rest.
type Flags struct {
	cmd, unit string

	// Out is -out: the record export path ("" = none).
	Out string
	// Serial is -serial, Verbose is -v, List is -list.
	Serial  bool
	Verbose bool
	List    bool

	checkpoint                 string
	resume, progress           bool
	interruptAfter             int
	retry                      int
	retryBackoff               time.Duration
	injectPanics, injectStalls string
	injectStallWindow          int
	injectOut, injectCkpt      string
}

// Register declares the shared flag block on fs. cmd is the command's name
// in messages, unit names what it streams ("trial", "evaluation"), and
// outHelp describes the command's -out format.
func Register(fs *flag.FlagSet, cmd, unit, outHelp string) *Flags {
	f := &Flags{cmd: cmd, unit: unit}
	fs.StringVar(&f.Out, "out", "", outHelp)
	fs.StringVar(&f.checkpoint, "checkpoint", "", "checkpoint file for -resume (default <out>.ckpt when -out is set; \"off\" disables)")
	fs.BoolVar(&f.resume, "resume", false, "replay the "+unit+"s already recorded in the checkpoint and continue the run")
	fs.BoolVar(&f.progress, "progress", false, "report "+unit+" progress to stderr")
	fs.IntVar(&f.interruptAfter, "interrupt-after", 0, "stop cleanly after N completed "+unit+"s, as if interrupted (testing hook for -resume)")
	fs.IntVar(&f.retry, "retry", 3, "attempts per sink/checkpoint write before the sink is dropped")
	fs.DurationVar(&f.retryBackoff, "retry-backoff", 5*time.Millisecond, "base of the deterministic exponential retry backoff")
	fs.StringVar(&f.injectPanics, "inject-panics", "", "fault injection: "+unit+"s to panic (\"3,7,9-12\" or \"rand:K@seed\")")
	fs.StringVar(&f.injectStalls, "inject-stalls", "", "fault injection: "+unit+"s to stall past the watchdog (same syntax)")
	fs.IntVar(&f.injectStallWindow, "inject-stall-window", 0, "window at which injected stalls fire (0 = default)")
	fs.StringVar(&f.injectOut, "inject-out-failures", "", "fault injection: -out write-failure schedule (\"N\", \"NxK\", \"N+\", comma-composed)")
	fs.StringVar(&f.injectCkpt, "inject-ckpt-failures", "", "fault injection: checkpoint write-failure schedule (same syntax)")
	fs.BoolVar(&f.Serial, "serial", false, "run "+unit+"s on a serial loop instead of the worker pool")
	fs.BoolVar(&f.Verbose, "v", false, "also print skipped sizes")
	fs.BoolVar(&f.List, "list", false, "print the registered algorithms, adversaries (with knobs), schedulers, and input patterns")
	return f
}

// Session is one resumable run, opened: the verified resume prefix, the
// sinks to stream into, and the hooks the record pipeline takes. R is the
// command's record type.
type Session[R any] struct {
	// Prefix is the checkpointed prefix to replay (nil on a fresh run).
	Prefix []R
	// Sinks are the -out export and the checkpoint, each named by its path.
	Sinks []registry.Sink[R]
	// Inject is the record-level fault-injection plan, nil when empty.
	Inject *faultinject.Plan
	// Stop reports a requested clean stop: a signal, or -interrupt-after
	// reached.
	Stop func() bool

	f          *Flags
	files      []*os.File
	emitted    atomic.Int64
	lastReport time.Time
}

// Open validates the shared flags and opens the run they describe: resolve
// the checkpoint path, load (and salvage) the prefix recorded against sig
// under -resume, and open the -out and checkpoint logs after it. index
// returns a record's position field; outSink builds the -out format over a
// writer (appending reports a non-empty prefix already in the file);
// interrupted is the signal hook, nil in tests.
func Open[R any](f *Flags, sig string, index func(R) int,
	outSink func(w io.Writer, appending bool) registry.Sink[R], interrupted func() bool) (*Session[R], error) {
	switch {
	case f.interruptAfter < 0:
		return nil, fmt.Errorf("interrupt-after must be >= 0, got %d", f.interruptAfter)
	case f.retry < 1:
		return nil, fmt.Errorf("retry must be >= 1 attempt, got %d", f.retry)
	case f.retryBackoff < 0:
		return nil, fmt.Errorf("retry-backoff must be >= 0, got %s", f.retryBackoff)
	case f.injectStallWindow < 0:
		return nil, fmt.Errorf("inject-stall-window must be >= 0, got %d", f.injectStallWindow)
	}
	s := &Session[R]{f: f, lastReport: time.Now()}
	inject := &faultinject.Plan{StallWindow: f.injectStallWindow}
	var err error
	if inject.Panic, err = faultinject.ParseTrialSet(f.injectPanics); err != nil {
		return nil, err
	}
	if inject.Stall, err = faultinject.ParseTrialSet(f.injectStalls); err != nil {
		return nil, err
	}
	if !inject.Empty() {
		s.Inject = inject
	}
	outFailures, err := faultinject.ParseWriteFailures(f.injectOut)
	if err != nil {
		return nil, err
	}
	ckptFailures, err := faultinject.ParseWriteFailures(f.injectCkpt)
	if err != nil {
		return nil, err
	}
	pol := retry.Policy{Attempts: f.retry, Base: f.retryBackoff, Max: 16 * f.retryBackoff}

	ckpt := f.checkpoint
	switch {
	case ckpt == "off":
		ckpt = ""
	case ckpt == "" && f.Out != "":
		ckpt = f.Out + ".ckpt"
	}
	if f.resume {
		if ckpt == "" {
			return nil, errors.New("-resume needs a checkpoint: set -out or -checkpoint")
		}
		var salvage *registry.SalvageReport
		if s.Prefix, salvage, err = registry.LoadCheckpointRecords(ckpt, sig, index); err != nil {
			return nil, err
		}
		if !salvage.Empty() {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", f.cmd, ckpt, salvage)
		}
		if f.progress && len(s.Prefix) > 0 {
			fmt.Fprintf(os.Stderr, "%s: resuming past %d checkpointed %ss\n", f.cmd, len(s.Prefix), f.unit)
		}
	}

	open := func(path, header string, newSink func(io.Writer, bool) registry.Sink[R], failures *faultinject.WriteFailures) error {
		sink, file, err := OpenLog(path, header, s.Prefix, newSink, pol, failures)
		if err != nil {
			s.Close()
			return err
		}
		s.files = append(s.files, file)
		s.Sinks = append(s.Sinks, registry.Named[R]{Name: path, Sink: sink})
		return nil
	}
	if f.Out != "" {
		if err := open(f.Out, "", outSink, outFailures); err != nil {
			return nil, err
		}
	}
	if ckpt != "" {
		jsonl := func(w io.Writer, _ bool) registry.Sink[R] { return registry.NewJSONLSinkOf[R](w) }
		if err := open(ckpt, sig, jsonl, ckptFailures); err != nil {
			return nil, err
		}
	}
	s.Stop = func() bool {
		if interrupted != nil && interrupted() {
			return true
		}
		return f.interruptAfter > 0 && s.emitted.Load() >= int64(f.interruptAfter)
	}
	return s, nil
}

// Close closes the session's files; call it after the run has flushed its
// sinks.
func (s *Session[R]) Close() {
	for _, f := range s.files {
		f.Close()
	}
}

// Note records the emission frontier — what -interrupt-after counts — and
// reports whether the caller should print a -progress line now: at most
// twice a second, and always when final.
func (s *Session[R]) Note(done int, final bool) bool {
	s.emitted.Store(int64(done))
	if !s.f.progress || !final && time.Since(s.lastReport) < 500*time.Millisecond {
		return false
	}
	s.lastReport = time.Now()
	return true
}

// Failed passes a run's error through, first printing the resume hint when
// the run was interrupted: the invocation with -resume added and
// -interrupt-after stripped — re-running the hint verbatim must make
// progress, not re-interrupt itself after the replayed prefix.
func (s *Session[R]) Failed(err error, args []string) error {
	if !errors.Is(err, registry.ErrInterrupted) {
		return err
	}
	var resumeArgs []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-interrupt-after" || args[i] == "--interrupt-after" {
			i++ // skip the value too
			continue
		}
		if strings.HasPrefix(args[i], "-interrupt-after=") || strings.HasPrefix(args[i], "--interrupt-after=") {
			continue
		}
		resumeArgs = append(resumeArgs, args[i])
	}
	if !s.f.resume {
		resumeArgs = append(resumeArgs, "-resume")
	}
	fmt.Fprintf(os.Stderr, "%s: interrupted after %d %ss; partial results are checkpointed — resume with: %s %s\n",
		s.f.cmd, s.emitted.Load(), s.f.unit, s.f.cmd, strings.Join(resumeArgs, " "))
	return err
}

// SplitList splits a comma-separated flag value, trimming blanks and
// dropping empty entries; "" is nil (the axis default).
func SplitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseSizes parses a comma-separated list of n:t shapes.
func ParseSizes(s string) ([]registry.Size, error) {
	var sizes []registry.Size
	for _, part := range SplitList(s) {
		nt := strings.SplitN(part, ":", 2)
		if len(nt) != 2 {
			return nil, fmt.Errorf("bad size %q (want n:t, e.g. 24:3)", part)
		}
		n, err := strconv.Atoi(nt[0])
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", part, err)
		}
		t, err := strconv.Atoi(nt[1])
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", part, err)
		}
		sizes = append(sizes, registry.Size{N: n, T: t})
	}
	return sizes, nil
}
