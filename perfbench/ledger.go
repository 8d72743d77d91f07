package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"lily"
	"lily/internal/core"
	"lily/internal/cut"
	"lily/internal/decomp"
	"lily/internal/equiv"
	"lily/internal/layout"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
	"lily/internal/netlist"
	"lily/internal/obs"
	"lily/internal/place"
	"lily/internal/timing"
)

// metric is one reported number's name, unit and direction, as listed in
// BENCHMARK.json.
type metric struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics, per pass of a workload.
var endToEnd = []metric{
	{"map_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"chip_area_mm2", "mm2", "lower"},
	{"wirelength_mm", "mm", "lower"},
	{"delay_ns", "ns", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. Each layer is named after the
// module whose public function the traced pass calls; match, cut and
// equiv are probes, run outside the pass.
var perLayer = []metric{
	{"logic.busy_s", "s", "lower"},
	{"decomp.busy_s", "s", "lower"},
	{"decomp.alloc_mb", "MB", "lower"},
	{"decomp.subject_nodes", "count", "lower"},
	{"place.busy_s", "s", "lower"},
	{"place.alloc_mb", "MB", "lower"},
	{"place.cg_iterations", "count", "lower"},
	{"match.busy_s", "s", "lower"},
	{"match.candidates", "count", "lower"},
	{"cut.busy_s", "s", "lower"},
	{"cut.candidates", "count", "lower"},
	{"core.busy_s", "s", "lower"},
	{"core.alloc_mb", "MB", "lower"},
	{"core.wire_evals", "count", "lower"},
	{"core.cones", "count", "lower"},
	{"core.cells", "count", "lower"},
	{"equiv.busy_s", "s", "lower"},
	{"equiv.alloc_mb", "MB", "lower"},
	{"equiv.proved_ratio", "ratio", "higher"},
	{"equiv.fallback_s", "s", "lower"},
	{"layout.busy_s", "s", "lower"},
	{"layout.alloc_mb", "MB", "lower"},
	{"timing.busy_s", "s", "lower"},
	{"netlist.busy_s", "s", "lower"},
	{"netlist.emit_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// Span attributes the traced pass records; the ledger sums each over the
// layer's spans.
const (
	attrAlloc      = "alloc_bytes"
	attrProved     = "proved"
	attrEmit       = "emit_bytes"
	attrSubject    = "subject_nodes"
	attrCG         = "cg_iterations"
	attrWireEvals  = "wire_evals"
	attrCones      = "cones"
	attrCells      = "cells"
	attrCandidates = "candidates"
)

// readMetric reads one runtime/metrics value.
func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes").Uint64() }

func gcCycles() uint64 { return readMetric("/gc/cycles/total:gc-cycles").Uint64() }

func gcCPUSeconds() float64 { return readMetric("/cpu/classes/gc/total:cpu-seconds").Float64() }

// layerCall records a span named after layer around fn, with the bytes
// fn allocated. With one job in flight the attribution is exact.
func layerCall(ctx context.Context, layer string, fn func(sp *obs.Span) error) error {
	_, sp := obs.StartSpan(ctx, layer)
	a0 := allocBytes()
	err := fn(sp)
	a1 := allocBytes()
	sp.End()
	sp.SetInt(attrAlloc, int64(a1-a0))
	sp.SetError(err)
	return err
}

// decomposable refuses jobs whose options the traced pass does not
// reproduce: it mirrors runPipeline's plumbing of exactly the fields
// cleared here, and the byte comparison against the untraced pass would
// otherwise fail for a reason unrelated to the program.
func decomposable(opt lily.FlowOptions) error {
	rest := opt
	rest.Objective, rest.Target, rest.WireWeight = 0, 0, 0
	rest.Parallelism, rest.MultilevelThreshold = 0, 0
	if rest != (lily.FlowOptions{}) {
		return fmt.Errorf("traced pass cannot reproduce options %+v", rest)
	}
	return nil
}

// placeConfig is runPipeline's placement plumbing: the default config
// with the job's parallelism and multilevel threshold.
func placeConfig(opt lily.FlowOptions) place.Config {
	cfg := place.DefaultConfig()
	cfg.Parallelism = opt.Parallelism
	if opt.MultilevelThreshold > 0 {
		cfg.MultilevelThreshold = opt.MultilevelThreshold
	} else if opt.MultilevelThreshold < 0 {
		cfg.MultilevelThreshold = 0
	}
	return cfg
}

// coreOptions is runPipeline's mapper plumbing for the mirrored fields.
func coreOptions(opt lily.FlowOptions) core.Options {
	mode := core.ModeArea
	if opt.Objective == lily.ObjectiveDelay {
		mode = core.ModeDelay
	}
	copt := core.DefaultOptions(mode)
	switch opt.Target {
	case lily.TargetLUT4:
		copt.Target = core.TargetLUT4
	case lily.TargetLUT6:
		copt.Target = core.TargetLUT6
	}
	if opt.WireWeight != 0 {
		copt.WireWeight = opt.WireWeight
	}
	copt.Parallelism = opt.Parallelism
	copt.Place = placeConfig(opt)
	return copt
}

// baseWidth is the mapper's inchoate cell width: NAND2 for two-input
// subject nodes, INV otherwise.
func baseWidth(sub *logic.Network, lib *library.Library) func(logic.NodeID) float64 {
	return func(id logic.NodeID) float64 {
		if nd := sub.Node(id); nd != nil && len(nd.Fanins) == 2 {
			return lib.Nand2.Width
		}
		return lib.Inv.Width
	}
}

// traced is what the traced pass keeps of one job: the mapped BLIF for
// the byte comparison, and what the probes need.
type traced struct {
	blif []byte
	src  *logic.Network
	sub  *logic.Network
	nl   *netlist.Netlist
}

// tracedJob runs one job through the program one layer at a time, the
// same calls lily.WriteMappedBLIFContext makes, with a span around each.
// fctx carries the flow counters into the program; spans go to tctx's
// tracer only, so the program's own tracing stays off.
func tracedJob(tctx, fctx context.Context, fm *obs.FlowMetrics, j job) (traced, error) {
	if err := decomposable(j.opt); err != nil {
		return traced{}, err
	}
	tctx, root := obs.StartSpan(tctx, "job")
	root.SetStr("key", j.key)
	defer root.End()
	lib := library.Big()
	copt := coreOptions(j.opt)
	var (
		src  *logic.Network
		sub  *logic.Network
		pl   *place.Result
		res  *core.Result
		lres *layout.Result
		out  bytes.Buffer
	)
	steps := []struct {
		layer string
		fn    func(sp *obs.Span) error
	}{
		{"logic", func(*obs.Span) (err error) {
			src, err = logic.ParseBLIF(bytes.NewReader(j.input))
			return err
		}},
		{"decomp", func(sp *obs.Span) error {
			pre, err := decomp.Premap(src)
			if err != nil {
				return err
			}
			sub = pre.Inchoate
			sp.SetInt(attrSubject, int64(sub.NumLogic()))
			return nil
		}},
		{"place", func(sp *obs.Span) (err error) {
			cg0 := fm.CGIterations.Value()
			pl, err = place.GlobalContext(fctx, sub, baseWidth(sub, lib), lib.RowHeight, copt.Place)
			sp.SetInt(attrCG, int64(fm.CGIterations.Value()-cg0))
			return err
		}},
		{"core", func(sp *obs.Span) (err error) {
			we0 := fm.WireEvals.Value()
			res, err = core.MapPlacedContext(fctx, sub, lib, pl, copt)
			sp.SetInt(attrWireEvals, int64(fm.WireEvals.Value()-we0))
			if err != nil {
				return err
			}
			sp.SetInt(attrCones, int64(res.Stats.ConesProcessed))
			sp.SetInt(attrCells, int64(len(res.Netlist.Cells)))
			return nil
		}},
		{"layout", func(*obs.Span) (err error) {
			lopt := layout.DefaultOptions()
			lopt.Place = placeConfig(j.opt)
			lres, err = layout.Place(res.Netlist, lib, lopt)
			return err
		}},
		{"timing", func(*obs.Span) error {
			_, err := timing.Analyze(res.Netlist, lib, timing.DefaultOptions())
			return err
		}},
		{"netlist", func(sp *obs.Span) error {
			err := netlist.WriteBLIF(&out, lres.Netlist)
			sp.SetInt(attrEmit, int64(out.Len()))
			return err
		}},
	}
	for _, st := range steps {
		if err := layerCall(tctx, st.layer, st.fn); err != nil {
			root.SetError(err)
			return traced{}, fmt.Errorf("%s: %s: %w", j.key, st.layer, err)
		}
	}
	return traced{blif: out.Bytes(), src: src, sub: sub, nl: res.Netlist}, nil
}

// probeEquiv checks one job's mapped netlist against its source, the
// check FlowOptions.VerifyEquivalence runs between cover and layout. It
// runs outside the traced pass, so the pass stays the untraced pass's
// work.
func probeEquiv(tctx context.Context, j job, t traced) error {
	tctx, root := obs.StartSpan(tctx, "probe")
	root.SetStr("key", j.key)
	defer root.End()
	return layerCall(tctx, "equiv", func(sp *obs.Span) error {
		r, err := equiv.Check(t.src, t.nl, equiv.DefaultOptions())
		if err != nil {
			return err
		}
		if !r.Equivalent {
			return fmt.Errorf("%s: mapped netlist differs from source at output %q", j.key, r.FailingOutput)
		}
		proved := int64(0)
		if r.Method == equiv.MethodBDD {
			proved = 1
		}
		sp.SetInt(attrProved, proved)
		return nil
	})
}

// probeEnumeration builds a fresh backend of the job's target on its
// subject graph and asks it for the candidates at every subject node:
// the enumeration half of cover, measured apart from the DP so that
// core.busy_s counts nothing twice.
func probeEnumeration(tctx context.Context, j job, sub *logic.Network) error {
	tctx, root := obs.StartSpan(tctx, "probe")
	root.SetStr("key", j.key)
	defer root.End()
	lib := library.Big()
	k := coreOptions(j.opt).Target.LUTK()
	layer := "match"
	if k > 0 {
		layer = "cut"
	}
	return layerCall(tctx, layer, func(sp *obs.Span) error {
		var be core.Backend
		if k > 0 {
			be = cut.NewEnumerator(sub, lib, k)
		} else {
			be = match.NewMatcher(sub, lib)
		}
		n := 0
		for _, nd := range sub.Nodes {
			if nd != nil && nd.Kind == logic.KindLogic {
				n += len(be.MatchesAt(nd.ID))
			}
		}
		sp.SetInt(attrCandidates, int64(n))
		return nil
	})
}

// tracedPass runs every job through tracedJob, then the probes, and
// folds the spans into the per-layer ledger. With equivProbe, every
// area-mode job's netlist is also checked by probeEquiv.
func tracedPass(ctx context.Context, jobs []job, equivProbe bool) (ledger map[string]float64, outs [][]byte, tree []*obs.SpanNode, err error) {
	tr := obs.NewTracer()
	tctx := obs.WithTracer(ctx, tr)
	fm := obs.RegisterFlowMetrics(obs.NewRegistry())
	fctx := obs.ContextWithFlowMetrics(ctx, fm)

	var wall, cycles, gcCPU float64
	ts := make([]traced, len(jobs))
	outs = make([][]byte, len(jobs))
	for i, j := range jobs {
		collect()
		gc0, gcCPU0, t0 := gcCycles(), gcCPUSeconds(), time.Now()
		if ts[i], err = tracedJob(tctx, fctx, fm, j); err != nil {
			return nil, nil, nil, err
		}
		wall += time.Since(t0).Seconds()
		cycles += float64(gcCycles() - gc0)
		gcCPU += gcCPUSeconds() - gcCPU0
		outs[i] = ts[i].blif
	}

	for i, j := range jobs {
		if err := probeEnumeration(tctx, j, ts[i].sub); err != nil {
			return nil, nil, nil, err
		}
		if equivProbe && j.opt.Objective == lily.ObjectiveArea {
			collect()
			if err := probeEquiv(tctx, j, ts[i]); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	tree = tr.Tree()
	ledger = foldSpans(tree)
	ledger["pass_s"] = wall
	ledger["runtime.gc_cycles"] = cycles
	ledger["runtime.gc_cpu_s"] = gcCPU
	return ledger, outs, tree, nil
}

// foldSpans sums each layer span's duration and attributes into ledger
// metrics named "<layer>.<metric>"; every per-layer metric is present,
// at zero where its layer did not run.
func foldSpans(roots []*obs.SpanNode) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, pm := range perLayer {
		m[pm.name] = 0
	}
	var checked float64
	for _, r := range roots {
		for _, sp := range r.Children {
			l := sp.Name
			d := float64(sp.DurationNS) / 1e9
			m[l+".busy_s"] += d
			for k, v := range sp.Attrs {
				n, _ := v.(int64)
				switch k {
				case attrAlloc:
					m[l+".alloc_mb"] += float64(n) / 1e6
				case attrEmit:
					m[l+".emit_mb"] += float64(n) / 1e6
				case attrProved:
					checked++
					m["equiv.proved_ratio"] += float64(n)
					if n == 0 {
						m["equiv.fallback_s"] += d
					}
				default:
					m[l+"."+k] += float64(n)
				}
			}
		}
	}
	if checked > 0 {
		m["equiv.proved_ratio"] /= checked
	}
	return m
}
