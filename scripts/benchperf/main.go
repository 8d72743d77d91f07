// Command benchperf is the performance-regression harness for the Lily
// mapping pipeline (DESIGN.md §11). It runs the hot-path benchmarks with
// a single timed iteration each, captures the mapper's wire-cost
// evaluation count in-process through the obs flow metrics, and emits a
// JSON snapshot (BENCH_PR5.json at the repo root). With -baseline it
// additionally compares the fresh run against a committed snapshot and
// exits non-zero when any metric regresses beyond its tolerance:
//
//	go run ./scripts/benchperf -out BENCH_PR5.json          # record
//	go run ./scripts/benchperf -baseline BENCH_PR5.json     # CI gate
//
// Two tolerance knobs exist because the metrics differ in nature:
// allocs/op and wire-cost evaluations are deterministic (same inputs,
// same counts on every machine) and gate at -tolerance (default 10%);
// ns/op depends on the host and on the single-iteration benchtime, so it
// gates at the looser -time-tolerance (default 50%) that still catches
// order-of-magnitude slowdowns without flaking on shared CI runners.
// ns/op is compared per benchmark only when the baseline is at least
// -min-ns (millisecond-scale circuits are pure scheduler noise at one
// iteration) and additionally in aggregate over every shared benchmark,
// which catches death-by-a-thousand-cuts slowdowns the floor excludes.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lily"
	"lily/internal/obs"
)

// benchTarget names one `go test -bench` invocation the harness drives.
type benchTarget struct {
	Pattern string // anchored -bench regexp
	Pkg     string // package path relative to the module root
}

var targets = []benchTarget{
	{Pattern: "^BenchmarkPipelineC5315$", Pkg: "."},
	{Pattern: "^BenchmarkPipelineC5315LUT[46]$", Pkg: "."},
	{Pattern: "^BenchmarkTable1Full$", Pkg: "."},
	{Pattern: "^BenchmarkEngineSuite$", Pkg: "./internal/engine/"},
}

// wireEvalCircuits is the fixed circuit sample whose summed wire-cost
// evaluation count is recorded. The count is a pure function of the
// mapper's DP structure, so any drift means the cover loop changed shape.
var wireEvalCircuits = []string{"9symml", "C432", "C880", "apex7", "duke2", "e64", "misex1"}

// gpsProfiles is the scale-suite sample for the gates-per-second series:
// three sizes spanning 2k to 20k generated nodes, each run through the
// complete pipeline once. Larger profiles exist (gen100k–gen500k) but
// belong to the scale-smoke job, not the per-PR perf gate.
var gpsProfiles = []string{"mid5k", "mid10k", "gen50k"}

// result is one benchmark line: the three quantities the regression gate
// compares.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// snapshot is the serialized form of BENCH_PR5.json.
type snapshot struct {
	Generated  string            `json:"generated"`
	GoVersion  string            `json:"go_version"`
	Benchmarks map[string]result `json:"benchmarks"`
	// WireCostEvaluations is the mapper DP's candidate-evaluation count
	// over wireEvalCircuits, read from the lily_wire_cost_evaluations
	// counter (internal/obs). Deterministic across machines.
	WireCostEvaluations uint64 `json:"wire_cost_evaluations"`
	// WireCostEvaluationsByTarget is the same probe per technology
	// target ("asic" repeats WireCostEvaluations; "lut4"/"lut6" run the
	// cut backend). Each is deterministic, so each gates at -tolerance.
	WireCostEvaluationsByTarget map[string]uint64 `json:"wire_cost_evaluations_by_target,omitempty"`
	// ConesMapped is the committed-cone count over the same sample.
	ConesMapped uint64 `json:"cones_mapped"`
	// GatesPerSecond is the full-pipeline throughput (generated nodes per
	// wall-clock second) for each scale profile in gpsProfiles — the
	// frontier-scaling series the ROADMAP tracks. Wall-clock-based, so it
	// gates at -time-tolerance (a drop beyond it fails the build).
	GatesPerSecond map[string]float64 `json:"gates_per_second,omitempty"`
}

func main() {
	out := flag.String("out", "", "write the fresh snapshot to this file")
	baseline := flag.String("baseline", "", "compare against this committed snapshot and fail on regression")
	tol := flag.Float64("tolerance", 0.10, "allowed fractional regression for deterministic metrics (allocs/op, wire evals)")
	timeTol := flag.Float64("time-tolerance", 0.50, "allowed fractional regression for ns/op")
	minNs := flag.Float64("min-ns", 5e8, "per-benchmark ns/op gate applies only above this baseline")
	flag.Parse()
	if *out == "" && *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchperf: need -out and/or -baseline")
		os.Exit(2)
	}

	snap, err := collect()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchperf: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeSnapshot(*out, snap); err != nil {
			fmt.Fprintf(os.Stderr, "benchperf: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchperf: wrote %s (%d benchmarks, %d wire evals)\n",
			*out, len(snap.Benchmarks), snap.WireCostEvaluations)
	}
	if *baseline != "" {
		base, err := readSnapshot(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchperf: %v\n", err)
			os.Exit(1)
		}
		errs := compare(base, snap, *tol, *timeTol, *minNs)
		if len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "benchperf: REGRESSION: %s\n", e)
			}
			os.Exit(1)
		}
		fmt.Printf("benchperf: OK against %s (%d benchmarks within tolerance)\n",
			*baseline, len(base.Benchmarks))
	}
}

// collect runs every target benchmark plus the in-process wire-eval
// probe and assembles the snapshot.
func collect() (*snapshot, error) {
	snap := &snapshot{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		Benchmarks: make(map[string]result),
	}
	for _, t := range targets {
		if err := runBench(t, snap.Benchmarks); err != nil {
			return nil, err
		}
	}
	snap.WireCostEvaluationsByTarget = make(map[string]uint64, 3)
	var cones uint64
	for _, tgt := range []lily.TechnologyTarget{lily.TargetASIC, lily.TargetLUT4, lily.TargetLUT6} {
		evals, c, err := wireEvals(tgt)
		if err != nil {
			return nil, err
		}
		snap.WireCostEvaluationsByTarget[tgt.String()] = evals
		if tgt == lily.TargetASIC {
			snap.WireCostEvaluations = evals
			cones = c
		}
	}
	snap.ConesMapped = cones
	snap.GatesPerSecond = make(map[string]float64, len(gpsProfiles))
	for _, name := range gpsProfiles {
		gps, err := scaleThroughput(name)
		if err != nil {
			return nil, err
		}
		fmt.Printf("benchperf: %s: %.0f gates/s\n", name, gps)
		snap.GatesPerSecond[name] = gps
	}
	return snap, nil
}

// runBench shells out to `go test -bench` with a single timed iteration
// and -benchmem, parsing every result line into out.
func runBench(t benchTarget, out map[string]result) error {
	args := []string{"test", "-run", "^$", "-bench", t.Pattern, "-benchtime", "1x", "-benchmem", t.Pkg}
	fmt.Printf("benchperf: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test -bench %s %s: %w", t.Pattern, t.Pkg, err)
	}
	found := 0
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, r, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		out[name] = r
		found++
	}
	if found == 0 {
		return fmt.Errorf("no benchmark lines in output of -bench %s %s", t.Pattern, t.Pkg)
	}
	return nil
}

// workerSub normalizes GOMAXPROCS-dependent sub-benchmark names
// (BenchmarkEngineSuite/workers-8) so snapshots recorded on different
// machines stay comparable.
var workerSub = regexp.MustCompile(`/workers-\d+`)

// parseBenchLine extracts one `Benchmark... N X ns/op ... Y B/op Z
// allocs/op` line. The leading "Benchmark" and the trailing
// -GOMAXPROCS suffix are stripped from the key.
func parseBenchLine(line string) (string, result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", result{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	name = workerSub.ReplaceAllString(name, "/workers-max")
	var r result
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp, seen = v, true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return name, r, seen
}

// wireEvals maps the fixed circuit sample in-process at one technology
// target with a registered flow-metrics bundle and reads back the
// counters the mapper bumps.
func wireEvals(tgt lily.TechnologyTarget) (evals, cones uint64, err error) {
	reg := obs.NewRegistry()
	fm := obs.RegisterFlowMetrics(reg)
	ctx := obs.ContextWithFlowMetrics(context.Background(), fm)
	for _, name := range wireEvalCircuits {
		c, err := lily.GenerateBenchmark(name)
		if err != nil {
			return 0, 0, err
		}
		if _, err := lily.RunFlowContext(ctx, c, lily.FlowOptions{Mapper: lily.MapperLily, Target: tgt}); err != nil {
			return 0, 0, fmt.Errorf("wire-eval probe on %s@%s: %w", name, tgt, err)
		}
	}
	return fm.WireEvals.Value(), fm.ConesMapped.Value(), nil
}

// scaleThroughput runs the complete pipeline once on a scale profile and
// returns generated nodes per wall-clock second.
func scaleThroughput(name string) (float64, error) {
	c, err := lily.GenerateBenchmark(name)
	if err != nil {
		return 0, err
	}
	nodes := c.Stats().Nodes
	start := time.Now()
	if _, err := lily.RunFlow(c, lily.FlowOptions{
		Mapper:      lily.MapperLily,
		Objective:   lily.ObjectiveArea,
		Parallelism: runtime.NumCPU(),
	}); err != nil {
		return 0, fmt.Errorf("throughput probe on %s: %w", name, err)
	}
	return float64(nodes) / time.Since(start).Seconds(), nil
}

// compare returns one message per metric in base that regressed beyond
// its tolerance in cur. Missing benchmarks are regressions too: a gate
// that silently drops its slowest case is not a gate.
func compare(base, cur *snapshot, tol, timeTol, minNs float64) []string {
	var errs []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var baseNs, curNs float64
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: present in baseline, missing from this run", name))
			continue
		}
		baseNs += b.NsPerOp
		curNs += c.NsPerOp
		if msg := exceeds(name, "allocs/op", b.AllocsPerOp, c.AllocsPerOp, tol); msg != "" {
			errs = append(errs, msg)
		}
		if b.NsPerOp >= minNs {
			if msg := exceeds(name, "ns/op", b.NsPerOp, c.NsPerOp, timeTol); msg != "" {
				errs = append(errs, msg)
			}
		}
	}
	if msg := exceeds("suite aggregate", "total ns", baseNs, curNs, timeTol); msg != "" {
		errs = append(errs, msg)
	}
	if msg := exceeds("wire-eval probe", "wire_cost_evaluations",
		float64(base.WireCostEvaluations), float64(cur.WireCostEvaluations), tol); msg != "" {
		errs = append(errs, msg)
	}
	tgts := make([]string, 0, len(base.WireCostEvaluationsByTarget))
	for t := range base.WireCostEvaluationsByTarget {
		tgts = append(tgts, t)
	}
	sort.Strings(tgts)
	for _, t := range tgts {
		b := base.WireCostEvaluationsByTarget[t]
		c, ok := cur.WireCostEvaluationsByTarget[t]
		if !ok {
			errs = append(errs, fmt.Sprintf("wire-eval probe @%s: present in baseline, missing from this run", t))
			continue
		}
		if msg := exceeds("wire-eval probe @"+t, "wire_cost_evaluations",
			float64(b), float64(c), tol); msg != "" {
			errs = append(errs, msg)
		}
	}
	profs := make([]string, 0, len(base.GatesPerSecond))
	for p := range base.GatesPerSecond {
		profs = append(profs, p)
	}
	sort.Strings(profs)
	for _, p := range profs {
		b := base.GatesPerSecond[p]
		c, ok := cur.GatesPerSecond[p]
		if !ok {
			errs = append(errs, fmt.Sprintf("scale throughput %s: present in baseline, missing from this run", p))
			continue
		}
		// Throughput regresses downward, so the gate inverts: failing
		// means cur fell below base/(1+timeTol).
		if b > 0 && c < b/(1+timeTol) {
			errs = append(errs, fmt.Sprintf("scale throughput %s: %.0f -> %.0f gates/s (%.1f%%, tolerance -%.0f%%)",
				p, b, c, 100*(c/b-1), 100*timeTol/(1+timeTol)))
		}
	}
	return errs
}

// exceeds formats a regression message when cur > base·(1+tol);
// improvements and zero baselines never fail.
func exceeds(name, metric string, base, cur, tol float64) string {
	if base <= 0 || cur <= base*(1+tol) {
		return ""
	}
	return fmt.Sprintf("%s %s: %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
		name, metric, base, cur, 100*(cur/base-1), 100*tol)
}

func writeSnapshot(path string, s *snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &snapshot{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
