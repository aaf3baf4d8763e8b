package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// shardPool is the persistent per-System worker pool that walks the window
// core's shards (shard.go) under SetShardWorkers(k >= 2); a System left at
// k <= 1 never builds one. It exists so that a System recycled across
// thousands of trials (the PR 4 pooled-engine path) pays for goroutine
// creation once, not per window: the pool spawns workers-1 goroutines at
// construction and thereafter a phase costs one buffered channel send per
// woken worker plus atomic shard claims — no allocation, no goroutine churn.
//
// Phase protocol: run() publishes the System, the phase selector, and the
// shard count, then wakes up to workers goroutines through the buffered wake
// channel (the channel send is the happens-before edge making the phase
// fields visible). Workers and the calling goroutine claim shard indices
// from a shared atomic counter until none remain, so an uneven shard (one
// receiver's delivery dominating) never idles the rest of the pool behind a
// static assignment — and because every shard writes only its own scratch
// and merge order is fixed by shard index (shard.go), the claim order is
// free to vary without affecting results. run() returns only after
// done.Wait(), which is the happens-before edge making every shard's
// scratch visible to the serial merge.
//
// Shutdown: SetShardWorkers stops a replaced pool explicitly; a System
// dropped on the floor (e.g. evicted from the pool of trial engines) has
// its pool reaped by a runtime.AddCleanup hook that closes quit — the pool
// clears its System pointer between phases, so idle workers pin only the
// pool itself, never the System, and the cleanup can fire.
type shardPool struct {
	workers int
	wake    chan struct{}
	quit    chan struct{}
	done    sync.WaitGroup

	// Phase state, written by run() before the wake sends and read by
	// workers after the wake receive.
	sys     *System
	phase   shardPhase
	nshards int32
	next    atomic.Int32
}

// shardPhase selects which per-shard body drain() executes. An enum rather
// than a closure so that publishing a phase allocates nothing.
type shardPhase int

const (
	phaseValidate shardPhase = iota + 1
	phaseDeliver
	phaseSend
	phaseTally // columnar per-receiver tally (columnar.go)
)

// newShardPool spawns a pool of workers goroutines (the calling goroutine
// of each phase participates too, so total parallelism is workers+1).
func newShardPool(workers int) *shardPool {
	p := &shardPool{
		workers: workers,
		wake:    make(chan struct{}, workers),
		quit:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// installCleanup arranges for the pool's goroutines to be reaped when owner
// (the System) becomes unreachable. The cleanup closure must not capture
// the pool or the System — either would keep the owner reachable forever —
// so it receives only the quit channel.
func (p *shardPool) installCleanup(owner *System) runtime.Cleanup {
	return runtime.AddCleanup(owner, func(quit chan struct{}) { close(quit) }, p.quit)
}

// stop terminates the worker goroutines. Only called when the pool is idle
// (between windows); the owning System must detach the pool first.
func (p *shardPool) stop() { close(p.quit) }

func (p *shardPool) worker() {
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake:
			p.drain()
			p.done.Done()
		}
	}
}

// drain claims and executes shards until none remain. Shard bodies recover
// their own panics into shard scratch (System.shardRun), so drain never
// unwinds a worker.
func (p *shardPool) drain() {
	sys, phase, n := p.sys, p.phase, p.nshards
	for {
		i := p.next.Add(1) - 1
		if i >= n {
			return
		}
		sys.shardRun(phase, int(i))
	}
}

// run executes one phase across nshards shards and returns when all have
// completed. The calling goroutine participates, so a pool with zero
// workers degenerates to a serial loop.
func (p *shardPool) run(sys *System, phase shardPhase, nshards int) {
	p.sys, p.phase, p.nshards = sys, phase, int32(nshards)
	p.next.Store(0)
	k := p.workers
	if k > nshards-1 {
		k = nshards - 1 // never wake more workers than there are other shards
	}
	p.done.Add(k)
	for i := 0; i < k; i++ {
		p.wake <- struct{}{}
	}
	p.drain()
	p.done.Wait()
	p.sys = nil // idle workers must not pin the System (see installCleanup)
}
