package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"lily"
	"lily/internal/obs"
)

const goldenPath = "../testdata/golden.json"

func testPins(t *testing.T) pins {
	t.Helper()
	p, err := loadPins(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDecompositionMatchesPublicAPI pins the traced pass to the public
// entry point: calling each layer's public function in turn must emit
// the bytes lily.WriteMappedBLIFContext emits, at every option the
// workloads use.
func TestDecompositionMatchesPublicAPI(t *testing.T) {
	cases := []workload{
		{name: "asic-area", profiles: []string{"C432"}, objectives: []lily.Objective{lily.ObjectiveArea}, parallelism: 1},
		{name: "asic-delay", profiles: []string{"C432"}, objectives: []lily.Objective{lily.ObjectiveDelay}, parallelism: 1},
		{name: "lut6", profiles: []string{"C432"}, objectives: []lily.Objective{lily.ObjectiveArea}, target: lily.TargetLUT6, parallelism: 1},
		{name: "mid5k-p2", profiles: []string{"mid5k"}, objectives: []lily.Objective{lily.ObjectiveArea}, parallelism: 2},
	}
	for _, w := range cases {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.profiles[0] == "mid5k" {
				t.Skip("mid5k under -short")
			}
			jobs, err := w.jobs(0)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			fm := obs.RegisterFlowMetrics(obs.NewRegistry())
			for _, j := range jobs {
				want := mapJob(ctx, j)
				if want.err != nil {
					t.Fatal(want.err)
				}
				got, err := tracedJob(obs.WithTracer(ctx, obs.NewTracer()), obs.ContextWithFlowMetrics(ctx, fm), fm, j)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.blif, want.blif) {
					t.Errorf("%s: traced pass emits %s, public API %s", j.key, sha(got.blif), sha(want.blif))
				}
			}
		})
	}
}

func TestDecomposableRefusesUnmirroredOptions(t *testing.T) {
	if err := decomposable(lily.FlowOptions{Objective: lily.ObjectiveDelay, Target: lily.TargetLUT6, Parallelism: 2, MultilevelThreshold: -1}); err != nil {
		t.Errorf("mirrored options refused: %v", err)
	}
	if err := decomposable(lily.FlowOptions{PreOptimize: true}); err == nil {
		t.Error("PreOptimize accepted, but the traced pass does not run the optimizer")
	}
	if err := decomposable(lily.FlowOptions{VerifyEquivalence: true}); err == nil {
		t.Error("VerifyEquivalence accepted, but the traced pass leaves equiv to the probe")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestMetricNames checks the metric and workload names' syntax and that
// BENCHMARK.json lists exactly what the code reports.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(kind string, code []metric, file []struct{ Name, Unit, Better string }) {
		if len(code) != len(file) {
			t.Errorf("%s: code reports %d metrics, BENCHMARK.json lists %d", kind, len(code), len(file))
			return
		}
		for i, m := range code {
			if !nameRE.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.name)
			}
			seen[m.name] = true
			if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
				t.Errorf("%s: %s has unit %q, better %q", kind, m.name, m.unit, m.better)
			}
			f := file[i]
			if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", kind, i, m, f)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("code has %d workloads, BENCHMARK.json %d", len(workloads), len(bf.Workloads))
	}
	for i, w := range workloads {
		if !nameRE.MatchString(w.name) || bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: code %q (%q), BENCHMARK.json %q (%q)", i, w.name, w.why, bf.Workloads[i].Name, bf.Workloads[i].Why)
		}
	}
}

// smallWorkload runs every layer and the equiv probe in well under a
// second.
var smallWorkload = workload{
	name:        "small",
	profiles:    []string{"misex1", "b9"},
	objectives:  []lily.Objective{lily.ObjectiveArea, lily.ObjectiveDelay},
	parallelism: 1,
	equivProbe:  true,
}

// TestRunEmitsEveryMetric runs the small workload untraced and traced, at
// the pinned seed and at a re-seeded one, and checks that every output
// passes its check and every named metric is reported.
func TestRunEmitsEveryMetric(t *testing.T) {
	p := testPins(t)
	lut := smallWorkload
	lut.target, lut.objectives, lut.equivProbe = lily.TargetLUT6, []lily.Objective{lily.ObjectiveArea}, false
	for _, w := range []workload{smallWorkload, lut} {
		for _, seed := range []int64{0, 7} {
			for _, traced := range []bool{false, true} {
				res, err := run(context.Background(), w, seed, time.Millisecond, traced, p, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("target %s seed %d traced %v: correct %v, %d of %d failed", w.target, seed, traced, res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.name]
					if !ok || v.Unit != m.unit {
						t.Errorf("metric %s missing or with unit %q", m.name, v.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v.Value)
					}
				}
				if traced {
					layers := []string{"logic", "decomp", "place", "core", "layout", "timing", "netlist", "match", "equiv"}
					if w.target != lily.TargetASIC {
						layers = append(layers[:7], "cut")
					}
					for _, l := range layers {
						if res.Metrics[l+".busy_s"].Value <= 0 {
							t.Errorf("layer %s reported no busy time", l)
						}
					}
				}
			}
		}
	}
}

// TestCheckRejectsWrongOutput makes sure both output checks can fail: a
// pinned hash that does not match, and a netlist whose function differs
// from the source.
func TestCheckRejectsWrongOutput(t *testing.T) {
	p := testPins(t)
	for _, w := range []workload{smallWorkload, {profiles: []string{"misex1"}, objectives: []lily.Objective{lily.ObjectiveArea}, target: lily.TargetLUT6}} {
		jobs, err := w.jobs(3)
		if err != nil {
			t.Fatal(err)
		}
		j := jobs[0]
		out := mapJob(context.Background(), j)
		if err := p.checkOutput(j, 3, out); err != nil {
			t.Fatalf("correct output rejected: %v", err)
		}
		if err := p.checkOutput(j, 0, out); err == nil {
			t.Errorf("%s: output of seed 3 passed the seed-0 pin", j.key)
		}
		bad := out
		bad.blif = []byte(breakFirstGate(t, string(out.blif)))
		if err := p.checkOutput(j, 3, bad); err == nil {
			t.Errorf("%s: netlist with a changed gate passed simulation", j.key)
		}
	}
}

// breakFirstGate swaps the first multi-input gate for one computing a
// different function: nand2 for nor2, or a LUT's truth table for its
// complement.
func breakFirstGate(t *testing.T, blif string) string {
	t.Helper()
	lines := strings.Split(blif, "\n")
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) < 4 || f[0] != ".gate" {
			continue
		}
		switch {
		case f[1] == "nand2":
			f[1] = "nor2"
		case strings.HasPrefix(f[1], "lut"):
			k, hex, _ := strings.Cut(f[1], "_")
			f[1] = k + "_" + strings.Map(func(r rune) rune {
				return rune("fedcba9876543210"[strings.IndexRune("0123456789abcdef", r)])
			}, hex)
		default:
			continue
		}
		lines[i] = strings.Join(f, " ")
		return strings.Join(lines, "\n")
	}
	t.Fatal("no gate to break")
	return ""
}

func TestReseed(t *testing.T) {
	if reseed(42, 0) != 42 {
		t.Error("seed 0 must keep the pinned seed")
	}
	if reseed(42, 1) == 42 || reseed(42, 1) == reseed(43, 1) || reseed(42, 1) == reseed(42, 2) {
		t.Error("re-seeding must change every profile's seed")
	}
	if reseed(42, 5) != reseed(42, 5) {
		t.Error("re-seeding must be deterministic")
	}
}
