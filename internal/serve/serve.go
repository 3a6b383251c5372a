// Package serve provides the HTTP-layer scaling primitives of
// cmd/mincutd: request coalescing (concurrent identical queries share
// one computation and one marshalled response) and admission control (a
// bounded inflight pool plus a bounded wait queue; everything beyond
// that is shed immediately instead of piling up).
//
// Coalescing does not duplicate the Snapshot's single flight. The
// snapshot runs one solve per epoch, but every request waiting on that
// solve still holds a pool slot or a queue place. mincutd coalesces
// before admission, so followers wait outside the gate: a herd of
// identical queries costs one slot and one marshal instead of filling
// the queue and being shed with 429.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Response is the shareable outcome of one coalesced request: a status
// code, the marshalled body, and two accounting flags the server folds
// into its metrics (whether the underlying certificate cache answered,
// and whether the handler failed).
type Response struct {
	Status int
	Body   []byte
	Hit    bool // served from a certificate cache
	Err    bool // handler-level failure (4xx/5xx)
}

// Coalescer deduplicates concurrent identical work: callers pass a key
// (for mincutd: endpoint + epoch + canonical query parameters) and a
// function producing the full response; at most one caller per key runs
// the function at a time, and every concurrent caller with the same key
// receives the leader's response. Keys are forgotten as soon as the
// leader finishes — this is single flight, not a response cache; the
// epoch in the key already guarantees two coalesced callers see the
// same graph.
type Coalescer struct {
	mu    sync.Mutex
	calls map[string]*coalescedCall
}

type coalescedCall struct {
	done chan struct{}
	resp Response
	err  error
}

// NewCoalescer returns an empty coalescer.
func NewCoalescer() *Coalescer {
	return &Coalescer{calls: map[string]*coalescedCall{}}
}

// Do runs fn once per key among concurrent callers and returns its
// response. shared reports that this caller got a leader's result
// instead of computing (a coalesced request). fn should return an error
// only for abandon-and-retry conditions (the leader's context was
// cancelled): followers of a failed leader elect a new leader rather
// than propagating the stranger's cancellation, exactly like the
// snapshot's single-flight certificate cell. A follower whose own ctx
// dies while waiting returns ctx.Err().
func (c *Coalescer) Do(ctx context.Context, key string, fn func() (Response, error)) (resp Response, shared bool, err error) {
	for {
		c.mu.Lock()
		if call, ok := c.calls[key]; ok {
			c.mu.Unlock()
			select {
			case <-call.done:
				if call.err == nil {
					return call.resp, true, nil
				}
				// Leader failed (cancelled); loop to elect a new one.
			case <-ctx.Done():
				return Response{}, false, ctx.Err()
			}
			continue
		}
		call := &coalescedCall{done: make(chan struct{})}
		c.calls[key] = call
		c.mu.Unlock()

		call.resp, call.err = fn()

		c.mu.Lock()
		delete(c.calls, key)
		c.mu.Unlock()
		close(call.done)
		return call.resp, false, call.err
	}
}

// ErrShed is returned by Gate.Admit when both the inflight pool and the
// wait queue are full: the request is dropped immediately (HTTP 429)
// so overload degrades into fast rejections instead of timeouts.
var ErrShed = errors.New("serve: admission queue full")

// Gate is the admission controller: up to inflight requests execute
// concurrently, up to queue more wait for a slot, and everything beyond
// that is shed with ErrShed. A waiter whose context dies leaves the
// queue with ctx.Err().
type Gate struct {
	slots    chan struct{}
	queueMax int64
	queued   atomic.Int64
}

// NewGate builds a gate with the given inflight and queue bounds (both
// forced to at least 1).
func NewGate(inflight, queue int) *Gate {
	if inflight < 1 {
		inflight = 1
	}
	if queue < 1 {
		queue = 1
	}
	return &Gate{slots: make(chan struct{}, inflight), queueMax: int64(queue)}
}

// Admit blocks until an execution slot is free, the queue overflows
// (ErrShed), or ctx dies. On success the caller must invoke release
// exactly once when its work is done.
func (g *Gate) Admit(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot, no queueing.
	select {
	case g.slots <- struct{}{}:
		return g.release, nil
	default:
	}
	if g.queued.Add(1) > g.queueMax {
		g.queued.Add(-1)
		return nil, ErrShed
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return g.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *Gate) release() { <-g.slots }

// Inflight returns the number of currently executing requests.
func (g *Gate) Inflight() int64 { return int64(len(g.slots)) }

// Queued returns the number of requests waiting for a slot.
func (g *Gate) Queued() int64 { return g.queued.Load() }
