package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// This file is the benchmark's load generator, and the reference for a later
// repair of cmd/load. Requests travel on a fixed number of lanes, one client
// connection each; request i always rides lane i mod width, so requests that
// must not overlap (two runs of one instance) are kept apart by giving them
// the same lane.

// request is one HTTP call to make. id travels in the idHeader so that the
// server-side span of a traced run can be matched to the client's.
type request struct {
	method, path, id string
	body             []byte
}

// idHeader carries request.id to the server-side span wrapper.
const idHeader = "X-Bench-Id"

// reply is what became of request index. Times are offsets from the start of
// the phase. A request that was due but never left has sent < 0: it is
// counted, never dropped.
type reply struct {
	index           int
	due, sent, done time.Duration
	status          int // 0: never sent, or a transport error
	body            []byte
	err             error
}

func (r reply) wasSent() bool { return r.sent >= 0 }

// lanes is a client with width connections to one server.
type lanes struct {
	client *http.Client
	base   string // http://host:port
	width  int
}

func newLanes(base string, width int) *lanes {
	tr := &http.Transport{
		MaxConnsPerHost:     width,
		MaxIdleConnsPerHost: width,
		DisableCompression:  true,
	}
	return &lanes{client: &http.Client{Transport: tr}, base: base, width: width}
}

func (g *lanes) close() { g.client.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (g *lanes) do(rq request) (status int, body []byte, err error) {
	var rd io.Reader
	if rq.body != nil {
		rd = bytes.NewReader(rq.body)
	}
	hr, err := http.NewRequest(rq.method, g.base+rq.path, rd)
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set(idHeader, rq.id)
	if rq.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// openLoop sends n requests on an absolute schedule: request i is due at
// start + i*interval whatever happened to the requests before it, and its
// latency is later taken from that due time. A lane that is still busy when
// a request falls due sends it late; the lateness is in sent - due, and so is
// the lateness of the timer (a sleep on the box this was written on ends 0.6
// to 1.1 ms late; yielding in a loop instead made stalls of 100 ms). A
// request still unsent at giveUp after its due time is recorded as never
// sent. Every one of the n due requests has a reply in the result, in index
// order.
func (g *lanes) openLoop(n int, interval, giveUp time.Duration, build func(i int) request) []reply {
	out := make([]reply, n)
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < g.width; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < n; i += g.width {
				rq := build(i)
				r := reply{index: i, due: time.Duration(i) * interval, sent: -1}
				if wait := r.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				if now := time.Since(start); now-r.due <= giveUp {
					r.sent = now
					r.status, r.body, r.err = g.do(rq)
					r.done = time.Since(start)
				}
				out[i] = r
			}
		}(lane)
	}
	wg.Wait()
	return out
}

// closedLoop has every lane send its requests back to back, the next only
// after the previous reply, until d has passed. It returns the replies in
// index order; the lanes need not have got equally far.
func (g *lanes) closedLoop(d time.Duration, build func(i int) request) []reply {
	perLane := make([][]reply, g.width)
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < g.width; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; time.Since(start) < d; i += g.width {
				rq := build(i)
				r := reply{index: i, sent: time.Since(start)}
				r.due = r.sent
				r.status, r.body, r.err = g.do(rq)
				r.done = time.Since(start)
				perLane[lane] = append(perLane[lane], r)
			}
		}(lane)
	}
	wg.Wait()
	var out []reply
	for _, rs := range perLane {
		out = append(out, rs...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}
