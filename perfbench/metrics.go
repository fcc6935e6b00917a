package main

import (
	"bufio"
	"cmp"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"optsync/internal/obs"
	"optsync/internal/wire"
)

type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run, perLayer by every traced
// run; BENCHMARK.json lists the same names and units. A layer metric
// that a workload does not exercise reads 0 there.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"core.entry_us", "us"},
	{"core.exit_us", "us"},
	{"core.commit_ratio", "ratio"},
	{"core.rollbacks_per_op", "1/op"},
	{"gwc.acquire_us", "us"},
	{"gwc.release_us", "us"},
	{"gwc.lock_frames_per_op", "frames/op"},
	{"gwc.lock_acquire_p50_us", "us"},
	{"gwc.write_ns", "ns"},
	{"gwc.units_per_batch", "units/batch"},
	{"gwc.coalesced_per_op", "1/op"},
	{"gwc.nacks_per_op", "1/op"},
	{"gwc.retransmits_per_op", "1/op"},
	{"gwc.batch_flush_p50_us", "us"},
	{"gwc.uplink_us", "us"},
	{"gwc.sequence_us", "us"},
	{"gwc.fanout_us", "us"},
	{"gwc.apply_us", "us"},
	{"transport.frames_per_op", "frames/op"},
	{"transport.bytes_per_op", "B/op"},
	{"transport.frames_per_writev", "frames/writev"},
	{"transport.send_ns", "ns"},
	{"transport.send_drops", "count"},
	{"transport.decode_errors", "count"},
	{"transport.conn_resets", "count"},
	{"wire.encode_ns_per_unit", "ns/unit"},
	{"wire.decode_ns_per_unit", "ns/unit"},
	{"integrity.sweeps_per_s", "1/s"},
	{"sim.config_ms.max", "ms"},
	{"sim.config_ms.gwc-optimistic", "ms"},
	{"sim.config_ms.gwc", "ms"},
	{"sim.config_ms.entry", "ms"},
	{"go.allocs_per_op", "allocs/op"},
	{"go.bytes_per_op", "B/op"},
	{"go.gc_per_kop", "gc/kop"},
	{"traced.ops_per_s", "1/s"},
	{"traced.p50_us", "us"},
	{"repo.loc_nontest", "lines"},
}

func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSample is the process CPU time at one instant, and the time the
// machine's CPUs had been stolen by its host until then.
type cpuSample struct {
	at    int64 // nanoseconds since epoch
	cpu   time.Duration
	steal time.Duration // per CPU
}

func sampleNow() cpuSample {
	return cpuSample{at: stamp(time.Now()), cpu: cpuTime(), steal: stolen()}
}

// stolen reads the time the hypervisor ran something else while this
// machine's CPUs wanted to run, from /proc/stat, divided among the CPUs;
// 0 where the system does not report it. Everything the benchmark times
// runs on this machine's CPUs, so the seconds a slice is counted in are
// its wall time less what was stolen from it.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	const tick = 10 * time.Millisecond // USER_HZ = 100
	return time.Duration(ticks) * tick / time.Duration(runtime.NumCPU())
}

// sliceEvery is the slice length of the live workloads' end-to-end
// figures.
const sliceEvery = 500 * time.Millisecond

// sampleCPU takes a cpuSample now and every period until the returned
// function is called, which returns the samples.
func sampleCPU(period time.Duration) func() []cpuSample {
	out := []cpuSample{sampleNow()}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				out = append(out, sampleNow())
			case <-done:
				return
			}
		}
	}()
	return func() []cpuSample {
		close(done)
		wg.Wait()
		return out
	}
}

// sliced cuts a run at the given instants and returns the medians over
// the slices of ops per second, of the latency figure lat, and of CPU
// time per op. A median over slices keeps a slice in which the machine
// ran something else from moving the run's figures.
func sliced(m measured, cuts []cpuSample, lat func([]time.Duration) time.Duration) (opsPerS, latUs, cpuUsPerOp float64) {
	per := max(1, m.perSample)
	s := slices.Clone(m.samples)
	slices.SortFunc(s, func(a, b sample) int { return cmp.Compare(a.done, b.done) })
	var rates, lats, cpus []float64
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		lo, _ := slices.BinarySearchFunc(s, a.at+1, func(x sample, t int64) int { return cmp.Compare(x.done, t) })
		hi, _ := slices.BinarySearchFunc(s, b.at+1, func(x sample, t int64) int { return cmp.Compare(x.done, t) })
		if hi == lo {
			continue
		}
		in := make([]time.Duration, 0, hi-lo)
		for _, x := range s[lo:hi] {
			in = append(in, x.lat)
		}
		ops := float64((hi - lo) * per)
		secs := (time.Duration(b.at-a.at) - (b.steal - a.steal)).Seconds()
		if secs <= 0 {
			continue
		}
		rates = append(rates, ops/secs)
		lats = append(lats, micros(lat(in)))
		cpus = append(cpus, micros(b.cpu-a.cpu)/ops)
	}
	_, opsPerS, _ = quartiles(rates)
	_, latUs, _ = quartiles(lats)
	_, cpuUsPerOp, _ = quartiles(cpus)
	return opsPerS, latUs, cpuUsPerOp
}

func median(d []time.Duration) time.Duration { return quantile(d, 0.5) }

// runWindow brackets a measured run's Go allocation and GC counters.
type runWindow struct{ mem runtime.MemStats }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func openWindow() runWindow {
	var w runWindow
	runtime.ReadMemStats(&w.mem)
	return w
}

// closeWindow returns the allocations, bytes allocated and GC cycles
// since w.
func (w runWindow) closeWindow() (allocs, bytes uint64, gcs uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs - w.mem.Mallocs, m.TotalAlloc - w.mem.TotalAlloc, m.NumGC - w.mem.NumGC
}

// histDelta is the part of a histogram recorded after base.
func histDelta(now, base obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Count: now.Count - base.Count, SumNanos: now.SumNanos - base.SumNanos}
	for i := range d.Buckets {
		d.Buckets[i] = now.Buckets[i] - base.Buckets[i]
	}
	return d
}

// codecCost times wire.Encode and wire.Decode over the frames a run
// sent, per 58-byte unit.
func codecCost(mix []wire.Message) (encNs, decNs float64) {
	if len(mix) == 0 {
		return 0, 0
	}
	units := 0
	encoded := make([][]byte, len(mix))
	for i, m := range mix {
		units += wire.EncodedLen(m) / wire.EncodedSize
		encoded[i] = wire.Encode(nil, m)
	}
	const budget = 200 * time.Millisecond
	buf := make([]byte, 0, wire.EncodedLen(wire.Message{Batch: make([]wire.Message, wire.MaxBatch)}))
	passes := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		for _, m := range mix {
			buf = wire.Encode(buf[:0], m)
		}
		passes++
	}
	encNs = float64(time.Since(t0)) / float64(passes*units)
	passes = 0
	t0 = time.Now()
	for time.Since(t0) < budget {
		for _, b := range encoded {
			if _, err := wire.Decode(b); err != nil {
				return encNs, 0
			}
		}
		passes++
	}
	return encNs, float64(time.Since(t0)) / float64(passes*units)
}

// locNonTest counts the lines of the program's non-test Go files: the
// module the checkout holds, without the benchmark and without hidden or
// build directories.
func locNonTest() float64 {
	root := "."
	if _, err := os.Stat("go.mod"); err == nil && isBenchDir() {
		root = ".."
	}
	lines := 0
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			lines++
		}
		return nil
	})
	return float64(lines)
}

// isBenchDir reports whether the working directory is the benchmark's
// own module (as under go test) rather than the checkout root.
func isBenchDir() bool {
	b, err := os.ReadFile("go.mod")
	return err == nil && strings.HasPrefix(string(b), "module optsync/perfbench")
}
