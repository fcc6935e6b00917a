// Command perfbench is optsync's benchmark: it runs one workload on the
// live stack or the Figure 8 simulation, checks its outputs, and prints
// one JSON line with every metric by name and unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

// setupReps is how many times an untraced run sets its cluster up; it
// reports the median and runs the workload on the last one. The set-ups
// are spaced setupGap apart, so that their median speaks for the
// machine's state over a while rather than for one instant.
const (
	setupReps = 21
	setupGap  = 25 * time.Millisecond
)

type workloadDef struct {
	cfg config
	run func(cl cluster, seed int64, d time.Duration) (measured, func() error)
}

var liveWorkloads = map[string]workloadDef{
	"burst-tcp": {burstConfig, runBurst},
	"mutex-contended": {mutexConfig, func(cl cluster, _ int64, d time.Duration) (measured, func() error) {
		return runMutex(cl, d, 0, false, mutexClients)
	}},
	"ring-optimistic": {ringConfig, func(cl cluster, _ int64, d time.Duration) (measured, func() error) {
		return runRing(cl, d, true)
	}},
	// ring-regular is not one of the benchmark's workloads: it runs the
	// ring with regular sections, the base of the optimistic/regular ratio.
	"ring-regular": {ringConfig, func(cl cluster, _ int64, d time.Duration) (measured, func() error) {
		return runRing(cl, d, false)
	}},
}

// report is the JSON line every run ends with.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "burst-tcp, mutex-contended, ring-optimistic or figure8-sim (all, with -repeat)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		repeat  = flag.Int("repeat", 0, "steadiness mode: run each workload this many times, seeds seed.., and print the spread of every metric")
		lost    = flag.Int("lost-updates", 0, "diagnostic: run the mutex-contended check with optimistic sections this many times")
	)
	flag.Parse()
	var err error
	switch {
	case *lost > 0:
		err = lostUpdates(*lost)
	case *repeat > 0:
		err = steadiness(*name, *seed, *seconds, *trace, *repeat)
	default:
		var rep report
		rep, err = runOne(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err == nil {
			out, _ := json.Marshal(rep)
			fmt.Println(string(out))
			if !rep.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// runOne runs one workload once. A failed check is reported through
// report.Correct; err means the run could not be made at all.
func runOne(name string, seed int64, d time.Duration, traced bool) (report, error) {
	if d <= 0 {
		return report{}, fmt.Errorf("-seconds must be positive")
	}
	if name == "figure8-sim" {
		return runSim(d, traced)
	}
	w, ok := liveWorkloads[name]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", name)
	}
	if traced {
		return runTraced(name, w, seed, d)
	}
	return runUntraced(w, seed, d)
}

// setUp builds a cluster and waits until a first write from node 1 is
// visible at every member: the time a user waits before the cluster works.
func setUp[C cluster](build func() (C, error), cfg config) (C, time.Duration, error) {
	t0 := time.Now()
	cl, err := build()
	if err != nil {
		return cl, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	err = cl.node(1).write(cfg.setupVar(), 1)
	for i := 0; i < nodes && err == nil; i++ {
		err = cl.node(i).waitGE(ctx, cfg.setupVar(), 1)
	}
	if err != nil {
		_ = cl.close()
		return cl, 0, fmt.Errorf("set-up: %w", err)
	}
	return cl, time.Since(t0), nil
}

func newReport(m measured, checkErr error) report {
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", checkErr)
	}
	return report{Correct: checkErr == nil, Attempted: m.ops, Failed: m.failed, Metrics: map[string]metric{}}
}

var metricUnits = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

func (r report) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// zeroLayers fills every per-layer metric with 0, for the layers a
// workload does not exercise.
func (r report) zeroLayers() {
	for _, d := range perLayer {
		r.Metrics[d.name] = metric{Value: 0, Unit: d.unit}
	}
}

func runUntraced(w workloadDef, seed int64, d time.Duration) (report, error) {
	var (
		cl     *publicCluster
		setups []time.Duration
	)
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			if err := cl.close(); err != nil {
				return report{}, err
			}
			time.Sleep(setupGap)
		}
		c, took, err := setUp(func() (*publicCluster, error) { return newPublic(w.cfg) }, w.cfg)
		if err != nil {
			return report{}, err
		}
		cl = c
		setups = append(setups, took)
	}
	stop := sampleCPU(sliceEvery)
	m, verify := w.run(cl, seed, d)
	cuts := stop()
	checkErr := verify()
	if err := cl.close(); err != nil && checkErr == nil {
		checkErr = fmt.Errorf("close: %w", err)
	}
	rep := newReport(m, checkErr)
	setEndToEnd(rep, m, cuts, setups)
	return rep, nil
}

// setEndToEnd sets the end-to-end metrics: medians over the run's slices,
// and the median set-up time.
func setEndToEnd(rep report, m measured, cuts []cpuSample, setups []time.Duration) {
	ops, p50, cpu := figures(m, cuts)
	rep.set("ops_per_s", ops)
	rep.set("p50_us", p50)
	rep.set("cpu_us_per_op", cpu)
	rep.set("setup_s", median(setups).Seconds())
	referenceLine(m.lat())
}

// figures slices a live run every sliceEvery and takes the p50 latency
// per slice. figure8-sim is sliced at its sweeps; its configurations
// differ in size by design, so its latency figure is the mean
// configuration time, in the same seconds as its rate.
func figures(m measured, cuts []cpuSample) (opsPerS, latUs, cpuUsPerOp float64) {
	if m.cuts != nil {
		opsPerS, _, cpuUsPerOp = sliced(m, m.cuts, median)
		return opsPerS, 1e6 / opsPerS, cpuUsPerOp
	}
	return sliced(m, cuts, median)
}

// referenceLine prints figures that are reported but not bounded: the
// tail latency at the highest percentile with at least ten samples
// beyond it.
func referenceLine(lat []time.Duration) {
	ref := map[string]any{"samples": len(lat)}
	if len(lat) >= 1000 {
		ref["p99_us"] = micros(quantile(lat, 0.99))
	} else if len(lat) >= 100 {
		ref["p90_us"] = micros(quantile(lat, 0.9))
	}
	out, _ := json.Marshal(map[string]any{"reference": ref})
	fmt.Fprintln(os.Stderr, string(out))
}

// maxBurstsPerSecond sizes the traced burst-tcp stamp arrays; bursts
// past the bound go unstamped and the stage breakdown skips them.
const maxBurstsPerSecond = 100000

// stageTolerance is how far the burst-tcp stage times may sum from the
// traced p50 (see README.md).
const stageTolerance = 0.10

func runTraced(name string, w workloadDef, seed int64, d time.Duration) (report, error) {
	var stages *stageStamps
	if name == "burst-tcp" {
		stages = newStageStamps(fenceVar, int(d.Seconds()*maxBurstsPerSecond))
	}
	cl, _, err := setUp(func() (*tracedCluster, error) { return newTraced(w.cfg, stages) }, w.cfg)
	if err != nil {
		return report{}, err
	}
	base := cl.startWindow()
	win := openWindow()
	stop := sampleCPU(sliceEvery)
	m, verify := w.run(cl, seed, d)
	cuts := stop()
	allocs, bytes, gcs := win.closeWindow()
	cl.tr.capture.Store(false)
	after := cl.snapshot()
	checkErr := verify()
	if err := cl.close(); err != nil && checkErr == nil {
		checkErr = fmt.Errorf("close: %w", err)
	}

	rep := newReport(m, checkErr)
	rep.zeroLayers()
	ops := float64(max(1, m.ops))
	var entry, exit, acquire, release []time.Duration
	var writes, writeNanos int64
	for _, n := range cl.tn {
		entry = append(entry, n.entry...)
		exit = append(exit, n.exit...)
		acquire = append(acquire, n.acquire...)
		release = append(release, n.release...)
		writes += n.writes
		writeNanos += n.writeNanos
	}
	var optimistic, commits, rollbacks, coalesced, nacks, retransmits, sweeps int
	for i := range cl.nodes {
		c0, c1 := base.core[i], after.core[i]
		optimistic += c1.Optimistic - c0.Optimistic
		commits += c1.Commits - c0.Commits
		rollbacks += c1.Rollbacks - c0.Rollbacks
		g0, g1 := base.gwc[i], after.gwc[i]
		coalesced += g1.Coalesced - g0.Coalesced
		nacks += g1.Nacks - g0.Nacks
		retransmits += g1.Retransmits - g0.Retransmits
		sweeps += g1.DigestSweeps - g0.DigestSweeps
	}
	tr := cl.tr
	rep.set("core.entry_us", micros(quantile(entry, 0.5)))
	rep.set("core.exit_us", micros(quantile(exit, 0.5)))
	rep.set("core.commit_ratio", ratio(float64(commits), float64(optimistic)))
	rep.set("core.rollbacks_per_op", float64(rollbacks)/ops)
	rep.set("gwc.acquire_us", micros(quantile(acquire, 0.5)))
	rep.set("gwc.release_us", micros(quantile(release, 0.5)))
	rep.set("gwc.lock_frames_per_op", float64(tr.lockUnits.Load())/ops)
	rep.set("gwc.lock_acquire_p50_us", micros(histDelta(after.obs.Hists[obs.HistLockAcquire], base.obs.Hists[obs.HistLockAcquire]).Quantile(0.5)))
	rep.set("gwc.write_ns", ratio(float64(writeNanos), float64(writes)))
	rep.set("gwc.units_per_batch", ratio(float64(tr.batchUnits.Load()), float64(tr.batchFrames.Load())))
	rep.set("gwc.coalesced_per_op", float64(coalesced)/ops)
	rep.set("gwc.nacks_per_op", float64(nacks)/ops)
	rep.set("gwc.retransmits_per_op", float64(retransmits)/ops)
	rep.set("gwc.batch_flush_p50_us", micros(histDelta(after.obs.Hists[obs.HistBatchFlush], base.obs.Hists[obs.HistBatchFlush]).Quantile(0.5)))
	rep.set("transport.frames_per_op", float64(tr.frames.Load())/ops)
	if w.cfg.tcp {
		n0, n1 := base.net, after.net
		rep.set("transport.bytes_per_op", float64(n1.BytesSent-n0.BytesSent)/ops)
		rep.set("transport.frames_per_writev", ratio(float64(n1.FramesSent-n0.FramesSent), float64(n1.Writevs-n0.Writevs)))
		rep.set("transport.send_drops", float64(n1.SendDrops-n0.SendDrops))
		rep.set("transport.decode_errors", float64(n1.DecodeErrors-n0.DecodeErrors))
		rep.set("transport.conn_resets", float64(n1.ConnResets-n0.ConnResets))
	} else {
		// In-process delivery encodes nothing; report what the frames
		// would weigh on the wire.
		rep.set("transport.bytes_per_op", float64(tr.units.Load()*wire.EncodedSize)/ops)
	}
	rep.set("transport.send_ns", ratio(float64(tr.sendNanos.Load()), float64(tr.frames.Load())))
	tr.mixMu.Lock()
	enc, dec := codecCost(tr.mix)
	tr.mixMu.Unlock()
	rep.set("wire.encode_ns_per_unit", enc)
	rep.set("wire.decode_ns_per_unit", dec)
	rep.set("integrity.sweeps_per_s", float64(sweeps)/m.elapsed.Seconds())
	setRuntime(rep, m, cuts, allocs, bytes, gcs)
	if stages != nil && rep.Correct {
		if err := setStages(rep, stages, m); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
			rep.Correct = false
		}
	}
	return rep, nil
}

func setRuntime(rep report, m measured, cuts []cpuSample, allocs, bytes uint64, gcs uint32) {
	ops := float64(max(1, m.ops))
	rep.set("go.allocs_per_op", float64(allocs)/ops)
	rep.set("go.bytes_per_op", float64(bytes)/ops)
	rep.set("go.gc_per_kop", 1000*float64(gcs)/ops)
	ops, p50, _ := figures(m, cuts)
	rep.set("traced.ops_per_s", ops)
	rep.set("traced.p50_us", p50)
	rep.set("repo.loc_nontest", locNonTest())
}

// setStages splits burst-tcp's write → visible time at the wrapped
// endpoints: writer start → root receives the fence (uplink), → root
// sends it to the reader (sequence), → reader receives it (fanout), →
// the reader's wait returns (apply). Each stage is averaged over the
// bursts whose total lies between the 45th and 55th percentile, so the
// stages sum to about the traced p50.
func setStages(rep report, s *stageStamps, m measured) error {
	type split struct{ total, up, seq, fan, apply int64 }
	var ok []split
	for i, x := range m.samples {
		n := int64(i + 1)
		a, b, c := s.rootRecv.get(n), s.rootSend.get(n), s.readerRecv.get(n)
		t0, t5 := x.done-int64(x.lat), x.done
		if a == 0 || b == 0 || c == 0 || !(t0 <= a && a <= b && b <= c && c <= t5) {
			continue
		}
		ok = append(ok, split{t5 - t0, a - t0, b - a, c - b, t5 - c})
	}
	if len(ok) < len(m.samples)/2 {
		return fmt.Errorf("stage stamps matched %d of %d bursts", len(ok), len(m.samples))
	}
	slices.SortFunc(ok, func(x, y split) int { return int(x.total - y.total) })
	band := ok[len(ok)*45/100 : max(len(ok)*55/100, len(ok)*45/100+1)]
	var sum split
	for _, x := range band {
		sum.total += x.total
		sum.up += x.up
		sum.seq += x.seq
		sum.fan += x.fan
		sum.apply += x.apply
	}
	k := float64(len(band)) * 1e3
	rep.set("gwc.uplink_us", float64(sum.up)/k)
	rep.set("gwc.sequence_us", float64(sum.seq)/k)
	rep.set("gwc.fanout_us", float64(sum.fan)/k)
	rep.set("gwc.apply_us", float64(sum.apply)/k)
	p50 := micros(median(m.lat()))
	if got := float64(sum.total) / k; p50 > 0 && (got/p50-1 > stageTolerance || 1-got/p50 > stageTolerance) {
		return fmt.Errorf("stage times sum to %.1fus, traced p50 is %.1fus", got, p50)
	}
	return nil
}

func runSim(d time.Duration, traced bool) (report, error) {
	var setups []time.Duration
	reps := setupReps
	if traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if i > 0 {
			time.Sleep(setupGap)
		}
		t0 := time.Now()
		if _, err := runFig8Config(fig8Warmup.v, fig8Warmup.n); err != nil {
			return report{}, fmt.Errorf("warm-up configuration: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	win := openWindow()
	res, verify := runFigure8(d)
	allocs, bytes, gcs := win.closeWindow()
	rep := newReport(res.measured, verify())
	if !traced {
		setEndToEnd(rep, res.measured, nil, setups)
		return rep, nil
	}
	rep.zeroLayers()
	for _, v := range fig8Variants {
		rep.set("sim.config_ms."+v.label, float64(res.perVariant[v.label])/1e6/float64(max(1, res.configs[v.label])))
	}
	setRuntime(rep, res.measured, nil, allocs, bytes, gcs)
	return rep, nil
}

func workloadNames(name string) []string {
	if name == "all" {
		return []string{"burst-tcp", "mutex-contended", "ring-optimistic", "figure8-sim"}
	}
	return strings.Split(name, ",")
}
