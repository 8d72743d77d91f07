// Command perfbench is the repository's benchmark. It maps one seeded
// workload of generated circuits through the library and prints the
// measured metrics as a JSON object on the last line of standard output.
//
//	go run . -workload paper-asic -seed 0 -seconds 10 -trace 0
//
// Run it from the repository root (it reads testdata/golden.json), or
// through run.py, which builds it first. With -trace 0 it times passes
// of lily.WriteMappedBLIFContext with tracing off and reports the
// end-to-end metrics; with -trace 1 it runs one such pass, then one pass
// that calls each layer's public function itself with a span around
// each call, and reports the per-layer ledger. NOTES.md records what
// each workload stresses and the spread observed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// setupReps is how many times a run sets its inputs up; setup_s is the
// median.
const setupReps = 7

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "paper-asic", "workload to run")
		seed    = flag.Int64("seed", 0, "workload seed; 0 keeps every profile's pinned seed")
		seconds = flag.Float64("seconds", 10, "measure passes for at least this long")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of timed passes")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	p, err := loadPins("testdata/golden.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, p, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED: see the failures above")
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result. Diagnostics,
// the ledger table and the span tree go to log.
func run(ctx context.Context, w workload, seed int64, d time.Duration, traced bool, p pins, log io.Writer) (*result, error) {
	var setups []float64
	var jobs []job
	for i := 0; i < setupReps; i++ {
		collect()
		t0 := time.Now()
		var err error
		if jobs, err = w.jobs(seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := &result{Metrics: make(map[string]value)}
	fail := func(err error) {
		res.Failed++
		fmt.Fprintln(log, "perfbench: FAIL:", err)
	}
	for _, j := range jobs {
		if err := p.checkInput(j, seed); err != nil {
			fail(err)
		}
	}

	// Timed passes start until d has elapsed; the traced run makes one,
	// as the reference for the traced pass. Only the first pass is
	// checked in full; later ones must repeat its bytes.
	deadline := time.Now().Add(d)
	passes := []pass{runPass(ctx, jobs)}
	for !traced && time.Now().Before(deadline) {
		passes = append(passes, runPass(ctx, jobs))
	}
	ref := passes[0].outputs
	for i, j := range jobs {
		res.Attempted++
		if err := p.checkOutput(j, seed, ref[i]); err != nil {
			fail(err)
		}
	}
	for _, ps := range passes[1:] {
		for i, j := range jobs {
			res.Attempted++
			if o := ps.outputs[i]; o.err != nil || sha(o.blif) != sha(ref[i].blif) {
				fail(fmt.Errorf("%s: output differs from the first pass (err %v)", j.key, o.err))
			}
		}
	}

	if traced {
		ledger, outs, tree, err := tracedPass(ctx, jobs, w.equivProbe)
		if err != nil {
			return nil, err
		}
		for i, j := range jobs {
			res.Attempted++
			if sha(outs[i]) != sha(ref[i].blif) {
				fail(fmt.Errorf("%s: traced pass drifted from lily.WriteMappedBLIFContext: mapped BLIF hash %s, untraced %s",
					j.key, sha(outs[i]), sha(ref[i].blif)))
			}
		}
		ledger["trace.overhead_s"] = ledger["pass_s"] - passes[0].wallS
		for _, m := range perLayer {
			res.Metrics[m.name] = value{ledger[m.name], m.unit}
		}
		writeLedger(log, w, ledger)
		if spans, err := json.Marshal(tree); err == nil {
			fmt.Fprintf(log, "spans: %s\n", spans)
		}
	} else {
		var chip, wl, delay float64
		for _, o := range ref {
			if o.res != nil {
				chip += o.res.ChipAreaMM2
				wl += o.res.WirelengthMM
				delay += o.res.DelayNS
			}
		}
		vals := map[string]float64{
			"map_s":         median(passes, func(p pass) float64 { return p.wallS }),
			"cpu_s":         median(passes, func(p pass) float64 { return p.cpuS }),
			"peak_heap_mb":  median(passes, func(p pass) float64 { return p.peakHeapMB }),
			"chip_area_mm2": chip,
			"wirelength_mm": wl,
			"delay_ns":      delay,
			"setup_s":       median(setups, func(s float64) float64 { return s }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
		fmt.Fprintf(log, "perfbench: %s seed %d: %d passes, map_s%s\n", w.name, seed, len(passes),
			passTimes(passes))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func median[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// passTimes lists each pass's wall seconds for the log.
func passTimes(ps []pass) string {
	s := ""
	for _, p := range ps {
		s += fmt.Sprintf(" %.3f", p.wallS)
	}
	return s
}

// writeLedger prints the traced pass as a table: each layer's busy time,
// its share of the traced pass, and the bytes it allocated; then the
// probes, which ran outside the pass.
func writeLedger(log io.Writer, w workload, m map[string]float64) {
	fmt.Fprintf(log, "ledger %s (traced pass %.3f s):\n", w.name, m["pass_s"])
	for _, l := range []string{"logic", "decomp", "place", "core", "layout", "timing", "netlist"} {
		busy := m[l+".busy_s"]
		fmt.Fprintf(log, "  %-8s %8.3f s %6.1f%% %9.1f MB\n", l, busy, 100*busy/m["pass_s"], m[l+".alloc_mb"])
	}
	for _, l := range []string{"match", "cut", "equiv"} {
		fmt.Fprintf(log, "  probe %-8s %8.3f s %9.1f MB\n", l, m[l+".busy_s"], m[l+".alloc_mb"])
	}
}
