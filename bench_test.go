package lily

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5) as testing.B benchmarks. Each benchmark times one full
// pipeline run and reports the paper's quantities as custom metrics, so
//
//	go test -bench 'Table1' -benchtime 1x
//
// prints one row per circuit with instance area, chip area, and
// wirelength for both mappers (compare cmd/tables for the formatted view).
// Ablation benchmarks cover the design choices DESIGN.md lists: placement
// update rule, wire estimator, cone ordering, λ, and library size.

import (
	"math"
	"testing"
)

// table1Sample keeps default `go test -bench=.` runs tractable; passing
// -bench 'Table1Full' exercises every circuit including C5315 and apex3.
var table1Sample = []string{"9symml", "C432", "C880", "apex7", "duke2", "e64", "misex1"}

func runPair(b *testing.B, circuit string, objective Objective) (mis, lily *FlowResult) {
	b.Helper()
	c, err := GenerateBenchmark(circuit)
	if err != nil {
		b.Fatal(err)
	}
	mis, err = RunFlow(c, FlowOptions{Mapper: MapperMIS, Objective: objective})
	if err != nil {
		b.Fatal(err)
	}
	lily, err = RunFlow(c, FlowOptions{Mapper: MapperLily, Objective: objective})
	if err != nil {
		b.Fatal(err)
	}
	return mis, lily
}

// BenchmarkTable1 regenerates Table 1 (area mode) rows over a sample of
// the suite.
func BenchmarkTable1(b *testing.B) {
	for _, name := range table1Sample {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, l := runPair(b, name, ObjectiveArea)
				b.ReportMetric(m.ChipAreaMM2, "mis-chip-mm2")
				b.ReportMetric(l.ChipAreaMM2, "lily-chip-mm2")
				b.ReportMetric(m.WirelengthMM, "mis-wl-mm")
				b.ReportMetric(l.WirelengthMM, "lily-wl-mm")
				b.ReportMetric(l.ChipAreaMM2/m.ChipAreaMM2, "chip-ratio")
				b.ReportMetric(l.WirelengthMM/m.WirelengthMM, "wl-ratio")
			}
		})
	}
}

// BenchmarkTable1Full runs every Table 1 circuit (slow; includes C5315).
func BenchmarkTable1Full(b *testing.B) {
	for _, name := range BenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, l := runPair(b, name, ObjectiveArea)
				b.ReportMetric(l.ChipAreaMM2/m.ChipAreaMM2, "chip-ratio")
				b.ReportMetric(l.WirelengthMM/m.WirelengthMM, "wl-ratio")
				b.ReportMetric(l.ActiveAreaMM2/m.ActiveAreaMM2, "inst-ratio")
			}
		})
	}
}

// BenchmarkTable2 regenerates Table 2 (timing mode) rows.
func BenchmarkTable2(b *testing.B) {
	for _, name := range []string{"9symml", "C432", "C880", "apex7", "b9", "duke2", "misex1"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, l := runPair(b, name, ObjectiveDelay)
				b.ReportMetric(m.DelayNS, "mis-delay-ns")
				b.ReportMetric(l.DelayNS, "lily-delay-ns")
				b.ReportMetric(l.DelayNS/m.DelayNS, "delay-ratio")
			}
		})
	}
}

// BenchmarkTable2Full runs every Table 2 circuit (slow).
func BenchmarkTable2Full(b *testing.B) {
	for _, name := range Table2Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, l := runPair(b, name, ObjectiveDelay)
				b.ReportMetric(l.DelayNS/m.DelayNS, "delay-ratio")
			}
		})
	}
}

// BenchmarkFig11Distribution quantifies Figure 1.1(a): the wire cost of
// one big gate versus k distribution points for spread-out sources (see
// examples/distribution for the narrative version).
func BenchmarkFig11Distribution(b *testing.B) {
	type pt struct{ x, y float64 }
	sources := []pt{
		{0, 0}, {10, 20}, {20, 10},
		{0, 500}, {10, 480}, {20, 490},
	}
	sink := pt{500, 250}
	cost := func(k int) float64 {
		per := (len(sources) + k - 1) / k
		total := 0.0
		var gs []pt
		for i := 0; i < len(sources); i += per {
			end := i + per
			if end > len(sources) {
				end = len(sources)
			}
			var g pt
			for _, s := range sources[i:end] {
				g.x += s.x
				g.y += s.y
			}
			g.x /= float64(end - i)
			g.y /= float64(end - i)
			for _, s := range sources[i:end] {
				total += math.Abs(s.x-g.x) + math.Abs(s.y-g.y)
			}
			gs = append(gs, g)
		}
		var hub pt
		for _, g := range gs {
			hub.x += g.x
			hub.y += g.y
		}
		hub.x /= float64(len(gs))
		hub.y /= float64(len(gs))
		if len(gs) > 1 {
			for _, g := range gs {
				total += math.Abs(g.x-hub.x) + math.Abs(g.y-hub.y)
			}
		}
		total += math.Abs(hub.x-sink.x) + math.Abs(hub.y-sink.y)
		return total
	}
	var k1, k2 float64
	for i := 0; i < b.N; i++ {
		k1, k2 = cost(1), cost(2)
	}
	b.ReportMetric(k1, "wire-k1-um")
	b.ReportMetric(k2, "wire-k2-um")
	b.ReportMetric(k2/k1, "k2-over-k1")
	if k2 >= k1 {
		b.Fatal("figure 1.1a shape broken: k=2 not better for spread sources")
	}
}

// BenchmarkFig11Decomposition quantifies Figure 1.1(b): Lily with
// layout-driven decomposition versus balanced decomposition.
func BenchmarkFig11Decomposition(b *testing.B) {
	c, err := GenerateBenchmark("e64")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		bal, err := RunFlow(c, FlowOptions{Mapper: MapperLily})
		if err != nil {
			b.Fatal(err)
		}
		placed, err := RunFlow(c, FlowOptions{Mapper: MapperLily, LayoutDrivenDecomposition: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bal.WirelengthMM, "balanced-wl-mm")
		b.ReportMetric(placed.WirelengthMM, "placed-wl-mm")
		b.ReportMetric(placed.WirelengthMM/bal.WirelengthMM, "wl-ratio")
	}
}

// BenchmarkPipelineC5315 measures the full Lily pipeline on the paper's
// runtime example (§5: C5315, 1892-gate inchoate network, ~10 min on a
// DEC3100).
func BenchmarkPipelineC5315(b *testing.B) {
	c, err := GenerateBenchmark("C5315")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := RunFlow(c, FlowOptions{Mapper: MapperLily})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SubjectNodes), "inchoate-nodes")
		b.ReportMetric(float64(res.Gates), "mapped-gates")
	}
}

// BenchmarkPipelineC5315LUT4 and ...LUT6 measure the same pipeline on
// the K-LUT backend: cut enumeration replaces library matching inside
// the identical covering DP, so the ASIC/LUT ns-per-op ratio tracks the
// relative cost of the two Backend implementations.
func BenchmarkPipelineC5315LUT4(b *testing.B) { benchPipelineLUT(b, TargetLUT4) }

func BenchmarkPipelineC5315LUT6(b *testing.B) { benchPipelineLUT(b, TargetLUT6) }

func benchPipelineLUT(b *testing.B, tgt TechnologyTarget) {
	b.Helper()
	c, err := GenerateBenchmark("C5315")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := RunFlow(c, FlowOptions{Mapper: MapperLily, Target: tgt})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SubjectNodes), "inchoate-nodes")
		b.ReportMetric(float64(res.Gates), "mapped-luts")
	}
}

// Ablation benchmarks (DESIGN.md §5).

func benchAblation(b *testing.B, circuits []string, opts map[string]FlowOptions) {
	for label, opt := range opts {
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var chip, wl float64
				for _, name := range circuits {
					c, err := GenerateBenchmark(name)
					if err != nil {
						b.Fatal(err)
					}
					r, err := RunFlow(c, opt)
					if err != nil {
						b.Fatal(err)
					}
					chip += r.ChipAreaMM2
					wl += r.WirelengthMM
				}
				b.ReportMetric(chip, "chip-mm2")
				b.ReportMetric(wl, "wl-mm")
			}
		})
	}
}

var ablationCircuits = []string{"C432", "duke2", "e64"}

// BenchmarkAblationCM compares the CM-of-Merged and CM-of-Fans placement
// update options plus the Manhattan-median variant (§3.2).
func BenchmarkAblationCM(b *testing.B) {
	benchAblation(b, ablationCircuits, map[string]FlowOptions{
		"cm-of-fans":   {Mapper: MapperLily, Update: UpdateCMOfFans},
		"cm-of-merged": {Mapper: MapperLily, Update: UpdateCMOfMerged},
		"median-fans":  {Mapper: MapperLily, Update: UpdateMedianFans},
	})
}

// BenchmarkAblationWireModel compares the §3.4 net-length estimators.
func BenchmarkAblationWireModel(b *testing.B) {
	benchAblation(b, ablationCircuits, map[string]FlowOptions{
		"hpwl-steiner":  {Mapper: MapperLily, Estimator: WireHPWLSteiner},
		"spanning-tree": {Mapper: MapperLily, Estimator: WireSpanningTree},
	})
}

// BenchmarkAblationConeOrder toggles the §3.5 cone ordering.
func BenchmarkAblationConeOrder(b *testing.B) {
	benchAblation(b, ablationCircuits, map[string]FlowOptions{
		"ordered": {Mapper: MapperLily},
		"natural": {Mapper: MapperLily, DisableConeOrdering: true},
	})
}

// BenchmarkAblationLambda sweeps the wire-cost weight (§5).
func BenchmarkAblationLambda(b *testing.B) {
	benchAblation(b, ablationCircuits, map[string]FlowOptions{
		"lambda-0.25": {Mapper: MapperLily, WireWeight: 0.25},
		"lambda-1":    {Mapper: MapperLily, WireWeight: 1},
		"lambda-4":    {Mapper: MapperLily, WireWeight: 4},
	})
}

// BenchmarkAblationPads compares connectivity-driven pad assignment with a
// naive uniform spread (§5: pad placement bounds Lily's wire reduction).
func BenchmarkAblationPads(b *testing.B) {
	benchAblation(b, ablationCircuits, map[string]FlowOptions{
		"connectivity-pads": {Mapper: MapperLily},
		"naive-pads":        {Mapper: MapperLily, NaivePads: true},
	})
}

// BenchmarkAblationReplace toggles the §3.2 periodic re-placement of the
// partially mapped network.
func BenchmarkAblationReplace(b *testing.B) {
	benchAblation(b, ablationCircuits, map[string]FlowOptions{
		"no-replace":  {Mapper: MapperLily},
		"replace-10":  {Mapper: MapperLily, ReplaceEvery: 10},
		"fresh-place": {Mapper: MapperLily, RePlaceMapped: true},
	})
}

// BenchmarkAblationFanout measures the buffer-tree postprocessing pass
// (paper §5 future work) on the delay objective.
func BenchmarkAblationFanout(b *testing.B) {
	for label, opt := range map[string]FlowOptions{
		"no-buffers":   {Mapper: MapperLily, Objective: ObjectiveDelay},
		"with-buffers": {Mapper: MapperLily, Objective: ObjectiveDelay, FanoutOptimize: true},
	} {
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var delay float64
				for _, name := range ablationCircuits {
					c, err := GenerateBenchmark(name)
					if err != nil {
						b.Fatal(err)
					}
					r, err := RunFlow(c, opt)
					if err != nil {
						b.Fatal(err)
					}
					delay += r.DelayNS
				}
				b.ReportMetric(delay, "sum-delay-ns")
			}
		})
	}
}

// BenchmarkAblationAnneal compares the greedy detailed placer against the
// simulated-annealing refinement (TimberWolf-style backend).
func BenchmarkAblationAnneal(b *testing.B) {
	benchAblation(b, ablationCircuits, map[string]FlowOptions{
		"greedy": {Mapper: MapperLily},
		"anneal": {Mapper: MapperLily, AnnealPlacement: true},
	})
}

// BenchmarkAblationPreOptimize measures the technology-independent
// optimization front end feeding both mappers.
func BenchmarkAblationPreOptimize(b *testing.B) {
	benchAblation(b, ablationCircuits, map[string]FlowOptions{
		"raw":       {Mapper: MapperLily},
		"optimized": {Mapper: MapperLily, PreOptimize: true},
	})
}

// BenchmarkAblationLibrary compares tiny and big libraries under both
// mappers (§5: Lily's edge grows with gate size).
func BenchmarkAblationLibrary(b *testing.B) {
	benchAblation(b, ablationCircuits, map[string]FlowOptions{
		"mis-tiny":  {Mapper: MapperMIS, Library: LibraryTiny},
		"mis-big":   {Mapper: MapperMIS, Library: LibraryBig},
		"lily-tiny": {Mapper: MapperLily, Library: LibraryTiny},
		"lily-big":  {Mapper: MapperLily, Library: LibraryBig},
	})
}
