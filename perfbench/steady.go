package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quartiles is Python's statistics.quantiles(values, n=4) with its
// default exclusive method, the spread measure BENCHMARK.json's bounds
// are set against.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// steadiness runs each workload `runs` times as separate processes with
// seeds seed, seed+1, ... and prints, for every metric, the median, the
// quartiles and the spread (q3-q1)/median.
func steadiness(name string, seed int64, seconds, trace, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloadNames(name) {
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []string
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			runErr := cmd.Run()
			var rep report
			if err := json.Unmarshal(lastLine(stdout.Bytes()), &rep); err != nil || runErr != nil || !rep.Correct {
				return fmt.Errorf("%s seed %d: %v %v\n%s", w, s, runErr, err, stderr.String())
			}
			for k, m := range rep.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			for _, line := range strings.Split(stderr.String(), "\n") {
				var ref struct{ Reference map[string]float64 }
				if json.Unmarshal([]byte(line), &ref) == nil {
					for k, v := range ref.Reference {
						values["ref."+k] = append(values["ref."+k], v)
					}
				}
			}
			shares = append(shares, fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
		}
		fmt.Printf("%s: %d runs of %ds, trace %d, seeds %d..%d, failed/attempted %v\n",
			w, runs, seconds, trace, seed, seed+int64(runs)-1, shares)
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  %-32s %14s %14s %14s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		for _, k := range keys {
			q1, med, q3 := quartiles(values[k])
			fmt.Printf("  %-32s %14.6g %14.6g %14.6g %7.2f%%  %s\n", k, med, q1, q3, 100*ratio(q3-q1, med), units[k])
		}
	}
	return nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// The diagnostic runs lostSections optimistic sections on every node,
// the root included: with clients on nodes 1 and 2 only, as in
// mutex-contended, the fault did not show in 100 runs.
const lostSections = 200

var lostClients = []int{0, 1, 2}

// lostUpdates runs the mutex-contended check with OptimisticDo sections
// on fresh in-process clusters and reports how many runs lost updates.
// It is a diagnostic, not a workload: at the commit this benchmark was
// written against, contended optimistic sections lose updates in some
// runs only (see README.md).
func lostUpdates(runs int) error {
	failures, doubles := 0, 0
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for r := 0; r < runs; r++ {
		cl, _, err := setUp(func() (*publicCluster, error) { return newPublic(mutexConfig) }, mutexConfig)
		if err != nil {
			return err
		}
		m, verify := runMutex(cl, time.Duration(0), lostSections, true, lostClients)
		checkErr := verify()
		var rollbacks, suppressed int
		for i := 0; i < nodes; i++ {
			st := cl.c.MustHandle(i).Stats()
			rollbacks += st.Optimistic.Rollbacks
			suppressed += st.GWC.Suppressed
		}
		final, _ := cl.node(0).read(counterVar)
		if err := cl.close(); err != nil {
			return err
		}
		if checkErr != nil || m.failed > 0 {
			failures++
			if strings.Contains(fmt.Sprint(checkErr), "written twice") {
				doubles++
			}
			fmt.Fprintf(out, "run %d: %d sections, counter %d, rollbacks %d, suppressed %d: %v\n",
				r, m.ops, final, rollbacks, suppressed, checkErr)
		}
	}
	fmt.Fprintf(out, "%d of %d runs lost updates; %d of them had two sections holding the mutex at once\n", failures, runs, doubles)
	return nil
}
