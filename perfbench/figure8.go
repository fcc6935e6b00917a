package main

import (
	"fmt"
	"math"
	"time"

	"optsync/internal/exp"
	"optsync/internal/model"
	"optsync/internal/sim"
	"optsync/internal/workload"
)

// fig8Variant is one line of the paper's Figure 8, configured as
// exp.Figure8 configures it. The benchmark runs the sweep itself, not
// through exp.Figure8, so that it can time each configuration.
type fig8Variant struct {
	label     string
	kind      workload.Kind
	zeroDelay bool
}

var fig8Variants = []fig8Variant{
	{"max", workload.KindGWC, true},
	{"gwc-optimistic", workload.KindGWCOptimistic, false},
	{"gwc", workload.KindGWC, false},
	{"entry", workload.KindEntry, false},
}

// The quick sweep's pipeline length (exp.Options{Quick: true}).
const fig8DataSize = 128

// Figure 8's headline ratios at two processors and the tolerance the
// quick sweep must meet: the paper reports 1.1 and 2.1.
const (
	paperOptOverGWC   = 1.1
	paperOptOverEntry = 2.1
	ratioTolerance    = 0.15
)

// fig8Warmup is the configuration set-up time is measured on.
var fig8Warmup = struct {
	v fig8Variant
	n int
}{fig8Variants[1], 16}

func runFig8Config(v fig8Variant, n int) (workload.PipelineResult, error) {
	k := sim.NewKernel()
	p := workload.DefaultPipelineParams(n)
	p.DataSize = fig8DataSize
	cfg := model.DefaultConfig(n)
	if v.zeroDelay {
		cfg.Net.HopLatency = 0
		cfg.Net.BytesPerNS = 1e12
		cfg.RootProc = 0
	}
	if v.kind == workload.KindEntry {
		cfg.ViaManager = true
	}
	p.Configure(&cfg)
	m, err := workload.NewMachine(k, v.kind, cfg)
	if err != nil {
		return workload.PipelineResult{}, err
	}
	return workload.RunPipeline(k, m, p)
}

// fig8Result holds what the traced run reports per variant.
type fig8Result struct {
	measured
	perVariant map[string]time.Duration // total wall time per variant
	configs    map[string]int
}

// runFigure8 repeats whole sweeps (7 sizes x 4 variants) until d has
// passed. Every sweep must pass exp.CheckFigure8, meet the headline
// ratios, and reproduce the first sweep's virtual-time results exactly.
func runFigure8(d time.Duration) (fig8Result, func() error) {
	res := fig8Result{perVariant: map[string]time.Duration{}, configs: map[string]int{}}
	var (
		first []workload.PipelineResult
		errs  error
	)
	start := time.Now()
	res.cuts = []cpuSample{sampleNow()}
	for sweep := 0; sweep == 0 || time.Since(start) < d; sweep++ {
		fig := exp.Figure{ID: "Figure 8"}
		var got []workload.PipelineResult
		for _, v := range fig8Variants {
			s := exp.Series{Label: v.label}
			for _, n := range exp.Figure8Sizes {
				t0 := time.Now()
				r, err := runFig8Config(v, n)
				smp := newSample(t0)
				res.samples = append(res.samples, smp)
				res.ops++
				res.perVariant[v.label] += smp.lat
				res.configs[v.label]++
				if err != nil {
					res.failed++
					errs = fmt.Errorf("%s N=%d: %w", v.label, n, err)
					continue
				}
				got = append(got, r)
				s.Points = append(s.Points, exp.Point{N: n, Power: r.Power})
			}
			fig.Series = append(fig.Series, s)
		}
		res.cuts = append(res.cuts, sampleNow())
		if errs != nil {
			break
		}
		if err := checkFigure8(fig); err != nil {
			errs = fmt.Errorf("sweep %d: %w", sweep, err)
			break
		}
		if first == nil {
			first = got
		} else if err := sameVirtualTime(first, got); err != nil {
			errs = fmt.Errorf("sweep %d differs from sweep 0: %w", sweep, err)
			break
		}
	}
	res.elapsed = time.Since(start)
	return res, func() error { return errs }
}

func checkFigure8(fig exp.Figure) error {
	if err := exp.CheckFigure8(fig); err != nil {
		return err
	}
	r, err := exp.HeadlineRatios(fig)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name  string
		paper float64
	}{{"optimistic/gwc", paperOptOverGWC}, {"optimistic/entry", paperOptOverEntry}} {
		if math.Abs(r[c.name]/c.paper-1) > ratioTolerance {
			return fmt.Errorf("headline %s = %.3f, paper %.1f, tolerance %.0f%%", c.name, r[c.name], c.paper, 100*ratioTolerance)
		}
	}
	return nil
}

func sameVirtualTime(a, b []workload.PipelineResult) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d configurations, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s N=%d: %+v, first sweep %+v", b[i].Model, b[i].N, b[i], a[i])
		}
	}
	return nil
}
