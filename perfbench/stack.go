package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"optsync"
	"optsync/internal/core"
	"optsync/internal/gwc"
	"optsync/internal/obs"
	"optsync/internal/transport"
	"optsync/internal/wire"
)

// Every live workload runs on one 3-node cluster with one group rooted
// at node 0 and one mutex. The machine this benchmark was tuned on has
// two cores; 3-node runs were much steadier there than 4-node runs.
const (
	nodes          = 3
	root           = 0
	batchDelay     = 2 * time.Millisecond
	burstLen       = 16
	integrityEvery = 50 * time.Millisecond
	// waitLimit bounds every wait on the cluster, so a lost update ends
	// the run with an error instead of hanging it.
	waitLimit = 30 * time.Second
)

// config selects the stack a workload runs on.
type config struct {
	tcp       bool
	batching  bool // batches of up to burstLen writes, flushed after batchDelay
	integrity bool // anti-entropy sweep every integrityEvery
	vars      int  // shared variables 0..vars-1; the last one is written once at set-up
	guarded   int  // variables 0..guarded-1 are guarded by the mutex
}

func (c config) setupVar() int { return c.vars - 1 }

// node is one member as a workload drives it. The untraced stack maps
// it onto the public optsync API; the traced stack onto gwc and core.
type node interface {
	write(v int, val int64) error
	read(v int) (int64, error)
	waitGE(ctx context.Context, v int, min int64) error
	// do runs body holding the mutex (the regular, pessimistic path).
	do(body func() error) error
	// optimisticDo runs body as an optimistic section on the mutex.
	optimisticDo(body func(tx txn) error) error
}

// txn is the view of a shared variable inside an optimistic section.
type txn interface {
	read(v int) (int64, error)
	write(v int, val int64) error
}

type cluster interface {
	node(i int) node
	health() []gwc.Health
	close() error
}

func loopback() []string {
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return addrs
}

// ---- untraced: the public API --------------------------------------------

type publicCluster struct {
	c    *optsync.Cluster
	m    *optsync.Mutex
	vars []*optsync.Var
}

func newPublic(cfg config) (*publicCluster, error) {
	var opts []optsync.Option
	if cfg.tcp {
		opts = append(opts, optsync.WithTCP(loopback()))
	}
	if cfg.batching {
		opts = append(opts, optsync.WithBatching(batchDelay, burstLen))
	}
	if cfg.integrity {
		opts = append(opts, optsync.WithIntegrity(integrityEvery))
	}
	c, err := optsync.NewCluster(nodes, opts...)
	if err != nil {
		return nil, err
	}
	g, err := c.NewGroup("bench", root)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	pc := &publicCluster{c: c, m: g.Mutex("m"), vars: make([]*optsync.Var, cfg.vars)}
	for i := range pc.vars {
		name := fmt.Sprintf("v%d", i)
		if i < cfg.guarded {
			pc.vars[i] = g.Int(name, pc.m)
		} else {
			pc.vars[i] = g.Int(name)
		}
	}
	return pc, nil
}

func (pc *publicCluster) node(i int) node      { return publicNode{h: pc.c.MustHandle(i), pc: pc} }
func (pc *publicCluster) health() []gwc.Health { return pc.c.Health() }
func (pc *publicCluster) close() error         { return pc.c.Close() }

type publicNode struct {
	h  *optsync.Handle
	pc *publicCluster
}

func (n publicNode) write(v int, val int64) error { return n.h.Write(n.pc.vars[v], val) }
func (n publicNode) read(v int) (int64, error)    { return n.h.Read(n.pc.vars[v]) }
func (n publicNode) waitGE(ctx context.Context, v int, min int64) error {
	return n.h.WaitGEContext(ctx, n.pc.vars[v], min)
}
func (n publicNode) do(body func() error) error { return n.h.Do(n.pc.m, body) }
func (n publicNode) optimisticDo(body func(tx txn) error) error {
	return n.h.OptimisticDo(n.pc.m, func(tx *optsync.Tx) error {
		return body(publicTx{tx: tx, vars: n.pc.vars})
	})
}

type publicTx struct {
	tx   *optsync.Tx
	vars []*optsync.Var
}

func (t publicTx) read(v int) (int64, error)    { return t.tx.Read(t.vars[v]) }
func (t publicTx) write(v int, val int64) error { return t.tx.Write(t.vars[v], val) }

// ---- traced: the same layers assembled by hand ---------------------------

const (
	gid gwc.GroupID = 1
	lid gwc.LockID  = 1
)

func varID(v int) gwc.VarID { return gwc.VarID(v + 1) }

// tracedCluster builds what optsync.NewCluster builds, from transport,
// gwc and core, with every endpoint wrapped and every call into gwc and
// core timed from outside.
type tracedCluster struct {
	net     transport.Network
	nodes   []*gwc.Node
	engines []*core.Engine
	tn      []*tracedNode
	tr      *tracer
}

func newTraced(cfg config, stages *stageStamps) (*tracedCluster, error) {
	var (
		nw  transport.Network
		err error
	)
	if cfg.tcp {
		nw, err = transport.NewTCP(loopback())
	} else {
		nw, err = transport.NewInProc(nodes)
	}
	if err != nil {
		return nil, err
	}
	tc := &tracedCluster{net: nw, tr: &tracer{stages: stages}}
	members := make([]int, nodes)
	for i := range members {
		members[i] = i
		ep, err := nw.Endpoint(i)
		if err != nil {
			_ = tc.close()
			return nil, err
		}
		nd := gwc.NewNode(i, &tracedEndpoint{Endpoint: ep, id: i, tr: tc.tr})
		if cfg.batching {
			nd.SetBatching(batchDelay, burstLen)
		}
		if cfg.integrity {
			nd.SetIntegrity(integrityEvery)
		}
		tc.nodes = append(tc.nodes, nd)
		tc.engines = append(tc.engines, core.NewEngine(nd, core.DefaultConfig()))
		tc.tn = append(tc.tn, &tracedNode{n: nd, e: tc.engines[i]})
	}
	for _, nd := range tc.nodes {
		if err := nd.Join(gwc.GroupConfig{ID: gid, Root: root, Members: members}); err != nil {
			_ = tc.close()
			return nil, err
		}
	}
	for v := 0; v < cfg.guarded; v++ {
		for _, nd := range tc.nodes {
			if err := nd.SetGuard(gid, varID(v), lid); err != nil {
				_ = tc.close()
				return nil, err
			}
		}
	}
	return tc, nil
}

func (tc *tracedCluster) node(i int) node { return tc.tn[i] }

func (tc *tracedCluster) health() []gwc.Health {
	out := make([]gwc.Health, len(tc.nodes))
	for i, nd := range tc.nodes {
		out[i] = nd.Health()
	}
	return out
}

func (tc *tracedCluster) close() error {
	var first error
	for _, nd := range tc.nodes {
		if err := nd.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := tc.net.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// tracedNode times each call into gwc and core. Each node is driven by
// at most one workload goroutine, so its samples need no lock.
type tracedNode struct {
	n *gwc.Node
	e *core.Engine

	writes, writeNanos int64
	acquire, release   []time.Duration // gwc lock calls, regular sections
	entry, exit        []time.Duration // core: call → body start, body end → return
}

func (n *tracedNode) reset() {
	n.writes, n.writeNanos = 0, 0
	n.acquire, n.release, n.entry, n.exit = nil, nil, nil, nil
}

func (n *tracedNode) write(v int, val int64) error {
	t0 := time.Now()
	err := n.n.Write(gid, varID(v), val)
	n.writeNanos += int64(time.Since(t0))
	n.writes++
	return err
}

func (n *tracedNode) read(v int) (int64, error) { return n.n.Read(gid, varID(v)) }

func (n *tracedNode) waitGE(ctx context.Context, v int, min int64) error {
	ok, err := n.n.WaitGEContext(ctx, gid, varID(v), min)
	if err == nil && !ok {
		err = gwc.ErrClosed
	}
	return err
}

func (n *tracedNode) do(body func() error) error {
	t0 := time.Now()
	if err := n.n.AcquireContext(context.Background(), gid, lid); err != nil {
		return err
	}
	t1 := time.Now()
	bodyErr := body()
	t2 := time.Now()
	err := n.n.Release(gid, lid)
	n.acquire = append(n.acquire, t1.Sub(t0))
	n.release = append(n.release, time.Since(t2))
	if err != nil {
		return err
	}
	return bodyErr
}

func (n *tracedNode) optimisticDo(body func(tx txn) error) error {
	var start, end time.Time
	t0 := time.Now()
	err := n.e.Do(gid, lid, func(tx *core.Tx) error {
		start = time.Now()
		err := body(coreTx{tx})
		end = time.Now()
		return err
	})
	// A rolled-back section runs its body twice; the last run counts.
	n.entry = append(n.entry, start.Sub(t0))
	n.exit = append(n.exit, time.Since(end))
	return err
}

type coreTx struct{ tx *core.Tx }

func (t coreTx) read(v int) (int64, error)    { return t.tx.Read(varID(v)) }
func (t coreTx) write(v int, val int64) error { return t.tx.Write(varID(v), val) }

// mixCap bounds how many sent frames are kept to measure the codec on.
const mixCap = 4096

// tracer counts what the wrapped endpoints carry.
type tracer struct {
	frames, units, lockUnits atomic.Int64
	batchFrames, batchUnits  atomic.Int64
	sendNanos                atomic.Int64
	capture                  atomic.Bool
	mixMu                    sync.Mutex
	mix                      []wire.Message
	stages                   *stageStamps // burst-tcp only
}

func (t *tracer) reset() {
	t.frames.Store(0)
	t.units.Store(0)
	t.lockUnits.Store(0)
	t.batchFrames.Store(0)
	t.batchUnits.Store(0)
	t.sendNanos.Store(0)
	t.mixMu.Lock()
	t.mix = make([]wire.Message, 0, mixCap)
	t.mixMu.Unlock()
	t.capture.Store(true)
}

func isLockFrame(t wire.Type) bool {
	switch t {
	case wire.TLockReq, wire.TLockRel, wire.TSeqLock, wire.TLockCancel,
		wire.TLeaseGrant, wire.TLeaseRet, wire.THandoff:
		return true
	}
	return false
}

func (t *tracer) sent(m wire.Message, d time.Duration) {
	t.sendNanos.Add(int64(d))
	t.frames.Add(1)
	t.units.Add(int64(1 + len(m.Batch)))
	lock := 0
	if isLockFrame(m.Type) {
		lock++
	}
	for i := range m.Batch {
		if isLockFrame(m.Batch[i].Type) {
			lock++
		}
	}
	if lock > 0 {
		t.lockUnits.Add(int64(lock))
	}
	if m.Type == wire.TBatch {
		t.batchFrames.Add(1)
		t.batchUnits.Add(int64(len(m.Batch)))
	}
	if t.capture.Load() {
		t.mixMu.Lock()
		if len(t.mix) < mixCap {
			c := m
			c.Batch = append([]wire.Message(nil), m.Batch...)
			t.mix = append(t.mix, c)
		} else {
			t.capture.Store(false)
		}
		t.mixMu.Unlock()
	}
}

// tracedEndpoint wraps one node's transport endpoint.
type tracedEndpoint struct {
	transport.Endpoint
	id int
	tr *tracer
}

func (e *tracedEndpoint) Send(to int, m wire.Message) error {
	t0 := time.Now()
	err := e.Endpoint.Send(to, m)
	e.tr.sent(m, time.Since(t0))
	if s := e.tr.stages; s != nil && e.id == root && to == burstReader {
		s.rootSend.observe(m, wire.TSeqUpdate, s.fence, stamp(t0))
	}
	return err
}

func (e *tracedEndpoint) Recv() (wire.Message, bool) {
	m, ok := e.Endpoint.Recv()
	if s := e.tr.stages; ok && s != nil {
		switch e.id {
		case root:
			s.rootRecv.observe(m, wire.TUpdate, s.fence, stamp(time.Now()))
		case burstReader:
			s.readerRecv.observe(m, wire.TSeqUpdate, s.fence, stamp(time.Now()))
		}
	}
	return m, ok
}

// epoch is the zero of every timestamp the benchmark compares across
// goroutines.
var epoch = time.Now()

// stamp returns t as nanoseconds since epoch.
func stamp(t time.Time) int64 { return int64(t.Sub(epoch)) }

// stageStamps records when each burst's fence passes the wrapped
// endpoints: arriving at the root, leaving the root for the reader, and
// arriving at the reader. A fence can be combined into a later one in
// the writer's batch queue, so a fence value v marks every burst up to
// v that had not been stamped yet.
type stageStamps struct {
	fence                          uint32
	rootRecv, rootSend, readerRecv stampLine
}

func newStageStamps(fence int, bursts int) *stageStamps {
	s := &stageStamps{fence: uint32(varID(fence))}
	for _, l := range []*stampLine{&s.rootRecv, &s.rootSend, &s.readerRecv} {
		l.at = make([]int64, bursts+1)
	}
	return s
}

type stampLine struct {
	mu   sync.Mutex
	high int64
	at   []int64 // at[i]: nanoseconds since epoch when burst i passed
}

func (l *stampLine) observe(m wire.Message, typ wire.Type, fence uint32, now int64) {
	if m.Type == wire.TBatch {
		for i := range m.Batch {
			l.observeUnit(&m.Batch[i], typ, fence, now)
		}
		return
	}
	l.observeUnit(&m, typ, fence, now)
}

func (l *stampLine) observeUnit(u *wire.Message, typ wire.Type, fence uint32, now int64) {
	if u.Type != typ || u.Var != fence {
		return
	}
	l.mu.Lock()
	for v := min(u.Val, int64(len(l.at)-1)); l.high < v; {
		l.high++
		l.at[l.high] = now
	}
	l.mu.Unlock()
}

func (l *stampLine) get(i int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < int64(len(l.at)) {
		return l.at[i]
	}
	return 0
}

// layerBase is the cumulative state of the traced stack at the start of
// the measured window; layer metrics are differences from it.
type layerBase struct {
	gwc  []gwc.Stats
	core []core.Stats
	obs  obs.MetricsSnapshot
	net  obs.TransportStats
}

func (tc *tracedCluster) snapshot() layerBase {
	var b layerBase
	for i, nd := range tc.nodes {
		b.gwc = append(b.gwc, nd.Stats())
		b.core = append(b.core, tc.engines[i].Stats())
		b.obs.Merge(nd.Metrics().Snapshot())
	}
	if ts, ok := tc.net.(interface{ TransportStats() obs.TransportStats }); ok {
		b.net = ts.TransportStats()
	}
	return b
}

// startWindow zeroes every counter the traced run reports from.
func (tc *tracedCluster) startWindow() layerBase {
	for _, n := range tc.tn {
		n.reset()
	}
	tc.tr.reset()
	return tc.snapshot()
}
