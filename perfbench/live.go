package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// measured is what one workload run produced inside its measured window.
type measured struct {
	ops, failed int
	// samples holds one latency per op, or per burst on burst-tcp.
	samples []sample
	// perSample is how many ops one sample stands for (0 means 1).
	perSample int
	elapsed   time.Duration
	// cuts, when set, are the instants to slice the run at (the sweep
	// boundaries of figure8-sim) instead of a fixed period.
	cuts []cpuSample
}

type sample struct {
	done int64 // completion, nanoseconds since epoch
	lat  time.Duration
}

func newSample(start time.Time) sample {
	now := time.Now()
	return sample{done: stamp(now), lat: now.Sub(start)}
}

func (m measured) lat() []time.Duration {
	out := make([]time.Duration, len(m.samples))
	for i, s := range m.samples {
		out[i] = s.lat
	}
	return out
}

// ---- burst-tcp -----------------------------------------------------------

const (
	burstVars   = 64        // zipf-drawn variables 0..63
	fenceVar    = burstVars // written last in every burst
	burstWriter = 1
	burstReader = 2
	// window bounds the bursts the writer has issued that the reader has
	// not seen yet: enough to keep the batch queue and the writev path
	// busy, few enough that a burst's latency is not mostly queueing.
	window = 8
	zipfS  = 1.1
)

var burstConfig = config{tcp: true, batching: true, integrity: true, vars: burstVars + 2}

type burst struct {
	n     int64
	vars  [burstLen - 1]uint8
	start time.Time
}

// runBurst streams bursts of burstLen unguarded writes from node 1: the
// first burstLen-1 go to zipf-drawn variables and the last to the fence,
// each carrying the burst number. Node 2 waits for each fence and checks
// that every variable there is at least the burst that last wrote it.
func runBurst(cl cluster, seed int64, d time.Duration) (measured, func() error) {
	w, r := cl.node(burstWriter), cl.node(burstReader)
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, burstVars-1)
	ctx, cancel := context.WithTimeout(context.Background(), d+waitLimit)
	defer cancel()

	issued := make(chan burst, window)
	slots := make(chan struct{}, window)
	var (
		wg        sync.WaitGroup
		writeErrs int
		final     [burstVars + 1]int64
	)
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(issued)
		for i := int64(1); time.Now().Before(deadline); i++ {
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				return
			}
			b := burst{n: i, start: time.Now()}
			for j := range b.vars {
				v := int(zipf.Uint64())
				b.vars[j] = uint8(v)
				if w.write(v, i) != nil {
					writeErrs++
				}
				final[v] = i
			}
			if w.write(fenceVar, i) != nil {
				writeErrs++
			}
			final[fenceVar] = i
			issued <- b
		}
	}()

	var (
		m      = measured{perSample: burstLen}
		expect [burstVars]int64
		errs   []error
	)
	for b := range issued {
		if err := r.waitGE(ctx, fenceVar, b.n); err != nil {
			errs = append(errs, fmt.Errorf("burst %d: fence never reached node %d: %w", b.n, burstReader, err))
			cancel()
			break
		}
		m.samples = append(m.samples, newSample(b.start))
		<-slots
		m.ops += burstLen
		for _, v := range b.vars {
			expect[v] = b.n
		}
		// Node 2 is not the writer, so GWC's writer order must show:
		// every variable is at least the burst that last wrote it.
		for v, want := range expect {
			if got, err := r.read(v); err != nil || got < want {
				if len(errs) < 4 {
					errs = append(errs, fmt.Errorf("at fence %d node %d reads v%d=%d, want >= %d (err %v)", b.n, burstReader, v, got, want, err))
				}
			}
		}
	}
	for range issued { // drain after an early stop so the writer can exit
	}
	wg.Wait()
	m.elapsed = time.Since(start)
	m.failed = writeErrs
	verify := func() error {
		if len(errs) > 0 {
			return errors.Join(errs...)
		}
		// Convergence is checked after the run and at every member, the
		// writer included. Reading the writer's own unguarded variables
		// mid-run would test read-your-writes, which GWC does not give
		// unguarded writes: the root's echo of an older write can
		// overwrite a newer local store until the newer echo lands.
		for i := 0; i < nodes; i++ {
			if err := converged(cl.node(i), final[:]); err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
		}
		return healthy(cl)
	}
	return m, verify
}

// converged waits until every variable v on nd reaches want[v], then
// checks that it holds exactly want[v].
func converged(nd node, want []int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	for v, w := range want {
		if err := nd.waitGE(ctx, v, w); err != nil {
			got, _ := nd.read(v)
			return fmt.Errorf("v%d stuck at %d, want %d: %w", v, got, w, err)
		}
		if got, err := nd.read(v); err != nil || got != w {
			return fmt.Errorf("v%d=%d, want %d (err %v)", v, got, w, err)
		}
	}
	return nil
}

func healthy(cl cluster) error {
	for i, h := range cl.health() {
		if h.Diverged != 0 {
			return fmt.Errorf("node %d convicted by the integrity sweep: %+v", i, h)
		}
	}
	return nil
}

// ---- mutex-contended -----------------------------------------------------

const counterVar = 0

var (
	mutexConfig  = config{vars: 2, guarded: 1}
	mutexClients = []int{1, 2}
)

// runMutex makes nodes 1 and 2 each loop sections that read the guarded
// counter and write it plus one, until deadline or, when sections > 0,
// until each has run that many. The check applies unchanged to
// optimistic sections: the values written must be exactly 1..N.
func runMutex(cl cluster, d time.Duration, sections int, optimistic bool, on []int) (measured, func() error) {
	type client struct {
		wrote   []int64
		samples []sample
		failed  int
		err     error
	}
	clients := make([]client, len(on))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range clients {
		wg.Add(1)
		go func(me *client, nd node) {
			defer wg.Done()
			for i := 0; sections > 0 && i < sections || sections == 0 && time.Now().Before(deadline); i++ {
				var wrote int64
				t0 := time.Now()
				var err error
				if optimistic {
					err = nd.optimisticDo(func(tx txn) error {
						cur, err := tx.read(counterVar)
						if err != nil {
							return err
						}
						wrote = cur + 1
						return tx.write(counterVar, wrote)
					})
				} else {
					err = nd.do(func() error {
						cur, err := nd.read(counterVar)
						if err != nil {
							return err
						}
						wrote = cur + 1
						return nd.write(counterVar, wrote)
					})
				}
				me.samples = append(me.samples, newSample(t0))
				if err != nil {
					me.failed++
					me.err = err
					continue
				}
				me.wrote = append(me.wrote, wrote)
			}
		}(&clients[c], cl.node(on[c]))
	}
	wg.Wait()
	var m measured
	m.elapsed = time.Since(start)
	var all []int64
	for _, c := range clients {
		m.ops += len(c.samples)
		m.failed += c.failed
		m.samples = append(m.samples, c.samples...)
		all = append(all, c.wrote...)
	}
	verify := func() error {
		if err := exactlyOneToN(all); err != nil {
			return err
		}
		want := []int64{int64(len(all))}
		for i := 0; i < nodes; i++ {
			if err := converged(cl.node(i), want); err != nil {
				return fmt.Errorf("node %d counter: %w", i, err)
			}
		}
		return nil
	}
	return m, verify
}

// exactlyOneToN checks mutual exclusion from outside: N sections that
// each add one to the counter must have written exactly 1..N. Two
// sections writing the same value held the mutex at once.
func exactlyOneToN(wrote []int64) error {
	s := slices.Clone(wrote)
	slices.Sort(s)
	dups, gaps := 0, 0
	var first error
	for i, v := range s {
		want := int64(i + 1)
		switch {
		case i > 0 && v == s[i-1]:
			dups++
			if first == nil {
				first = fmt.Errorf("value %d written twice: two sections held the mutex at once", v)
			}
		case v != want:
			gaps++
			if first == nil {
				first = fmt.Errorf("sorted value %d is %d, want %d", i, v, want)
			}
		}
	}
	if first != nil {
		return fmt.Errorf("%d sections, %d duplicate values, %d misplaced: %w", len(s), dups, gaps, first)
	}
	return nil
}

// ---- ring-optimistic -----------------------------------------------------

const tokenVar = 1

var ringConfig = config{tcp: true, vars: 3, guarded: 1}

// runRing passes a token round a ring of one stage per node. The stage
// holding token t runs a section that increments the guarded counter,
// then hands the token on with an unguarded write outside the section,
// so every section finds the mutex free and speculation never conflicts.
// Only the stage holding the token is runnable.
func runRing(cl cluster, d time.Duration, optimistic bool) (measured, func() error) {
	type section struct {
		token, read int64
	}
	type stage struct {
		done    []section
		samples []sample
		failed  int
		err     error
	}
	stages := make([]stage, nodes)
	stop, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for s := range stages {
		wg.Add(1)
		go func(me *stage, nd node, first int64) {
			defer wg.Done()
			for t := first; stop.Err() == nil; t += nodes {
				if err := nd.waitGE(stop, tokenVar, t); err != nil {
					if stop.Err() == nil {
						me.failed++
						me.err = err
					}
					return
				}
				var read int64
				t0 := time.Now()
				body := func(rd func(int) (int64, error), wr func(int, int64) error) error {
					cur, err := rd(counterVar)
					if err != nil {
						return err
					}
					read = cur
					return wr(counterVar, cur+1)
				}
				var err error
				if optimistic {
					err = nd.optimisticDo(func(tx txn) error { return body(tx.read, tx.write) })
				} else {
					err = nd.do(func() error { return body(nd.read, nd.write) })
				}
				me.samples = append(me.samples, newSample(t0))
				if err == nil {
					err = nd.write(tokenVar, t+1)
				}
				if err != nil {
					me.failed++
					me.err = err
					return
				}
				me.done = append(me.done, section{token: t, read: read})
			}
		}(&stages[s], cl.node(s), int64(s))
	}
	wg.Wait()
	var m measured
	m.elapsed = time.Since(start)
	var all []section
	var errs []error
	for _, s := range stages {
		m.ops += len(s.samples)
		m.failed += s.failed
		m.samples = append(m.samples, s.samples...)
		all = append(all, s.done...)
		if s.err != nil {
			errs = append(errs, s.err)
		}
	}
	verify := func() error {
		if len(errs) > 0 {
			return errors.Join(errs...)
		}
		slices.SortFunc(all, func(a, b section) int { return int(a.token - b.token) })
		for k, s := range all {
			if s.token != int64(k) || s.read != int64(k) {
				return fmt.Errorf("section %d in token order has token %d and read %d, want %d and %d", k+1, s.token, s.read, k, k)
			}
		}
		want := []int64{int64(len(all))}
		for i := 0; i < nodes; i++ {
			if err := converged(cl.node(i), want); err != nil {
				return fmt.Errorf("node %d counter: %w", i, err)
			}
		}
		return nil
	}
	return m, verify
}
