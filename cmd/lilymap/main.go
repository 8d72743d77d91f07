// Command lilymap runs one synthesis → layout pipeline on a benchmark or a
// BLIF file and prints the paper's metrics.
//
// Usage:
//
//	lilymap -circuit C432                       # Lily, area mode
//	lilymap -circuit C5315 -mapper mis -mode delay
//	lilymap -blif design.blif -lambda 0.5 -verify
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"lily"
)

func main() {
	circuit := flag.String("circuit", "", "benchmark name (see -list)")
	blif := flag.String("blif", "", "path to a combinational BLIF file")
	mapper := flag.String("mapper", "lily", "mapper: lily or mis")
	mode := flag.String("mode", "area", "objective: area or delay")
	target := flag.String("target", "asic", "technology target: asic, lut4, or lut6")
	libChoice := flag.String("lib", "big", "library: big (≤6-input) or tiny (≤3-input)")
	lambda := flag.Float64("lambda", 1.0, "Lily wire-cost weight λ")
	update := flag.String("update", "cm-of-fans", "Lily placement update: cm-of-fans, cm-of-merged, median")
	estimator := flag.String("wire", "hpwl", "Lily wire estimator: hpwl or rmst")
	noOrder := flag.Bool("no-cone-order", false, "disable §3.5 cone ordering")
	tree := flag.Bool("tree", false, "MIS: DAGON tree-covering mode")
	verify := flag.Bool("verify", false, "verify mapped netlist against source")
	parallelism := flag.Int("parallelism", 0, "intra-run placement worker bound (0 = sequential; output is identical at any setting)")
	mlThreshold := flag.Int("multilevel-threshold", 0,
		"movable-cell count above which placement uses the multilevel V-cycle (0 = default 25000, negative disables)")
	list := flag.Bool("list", false, "list benchmark names and exit")
	showPath := flag.Bool("path", false, "print the critical path")
	outBLIF := flag.String("o", "", "write the mapped, placed netlist as .gate BLIF to this path")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(lily.BenchmarkNames(), " "))
		fmt.Println(strings.Join(lily.ScaleBenchmarkNames(), " "))
		return
	}

	var c *lily.Circuit
	var err error
	switch {
	case *blif != "":
		f, ferr := os.Open(*blif)
		if ferr != nil {
			fatal(ferr)
		}
		c, err = lily.LoadBLIF(f)
		f.Close()
	case *circuit != "":
		c, err = lily.GenerateBenchmark(*circuit)
	default:
		fmt.Fprintln(os.Stderr, "lilymap: need -circuit or -blif (try -list)")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	opt := lily.FlowOptions{
		WireWeight:          *lambda,
		DisableConeOrdering: *noOrder,
		TreeMode:            *tree,
		VerifyEquivalence:   *verify,
		Parallelism:         *parallelism,
		MultilevelThreshold: *mlThreshold,
	}
	switch *mapper {
	case "lily":
		opt.Mapper = lily.MapperLily
	case "mis":
		opt.Mapper = lily.MapperMIS
	default:
		fatal(fmt.Errorf("unknown mapper %q", *mapper))
	}
	switch *mode {
	case "area":
		opt.Objective = lily.ObjectiveArea
	case "delay":
		opt.Objective = lily.ObjectiveDelay
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	switch *libChoice {
	case "big":
		opt.Library = lily.LibraryBig
	case "tiny":
		opt.Library = lily.LibraryTiny
	default:
		fatal(fmt.Errorf("unknown library %q", *libChoice))
	}
	switch *update {
	case "cm-of-fans":
		opt.Update = lily.UpdateCMOfFans
	case "cm-of-merged":
		opt.Update = lily.UpdateCMOfMerged
	case "median":
		opt.Update = lily.UpdateMedianFans
	default:
		fatal(fmt.Errorf("unknown update rule %q", *update))
	}
	switch *estimator {
	case "hpwl":
		opt.Estimator = lily.WireHPWLSteiner
	case "rmst":
		opt.Estimator = lily.WireSpanningTree
	default:
		fatal(fmt.Errorf("unknown estimator %q", *estimator))
	}
	tgt, err := lily.ParseTechnologyTarget(*target)
	if err != nil {
		fatal(err)
	}
	opt.Target = tgt

	st := c.Stats()
	fmt.Printf("circuit %s: %d PIs, %d POs, %d nodes, depth %d\n",
		c.Name(), st.PIs, st.POs, st.Nodes, st.Depth)

	var res *lily.FlowResult
	if *outBLIF != "" {
		f, ferr := os.Create(*outBLIF)
		if ferr != nil {
			fatal(ferr)
		}
		res, err = lily.WriteMappedBLIF(c, opt, f)
		if cerr := f.Close(); err == nil && cerr != nil {
			fatal(cerr)
		}
	} else {
		res, err = lily.RunFlow(c, opt)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mapper            %s (%s mode, %s library, %s target)\n",
		res.Mapper, res.Objective, *libChoice, res.Target)
	fmt.Printf("subject graph     %d NAND2/INV nodes\n", res.SubjectNodes)
	fmt.Printf("mapped gates      %d\n", res.Gates)
	fmt.Printf("instance area     %.4f mm²\n", res.ActiveAreaMM2)
	fmt.Printf("chip area         %.4f mm² (%d rows, peak channel density %d)\n",
		res.ChipAreaMM2, res.Rows, res.PeakChannelDensity)
	fmt.Printf("wirelength        %.2f mm\n", res.WirelengthMM)
	fmt.Printf("longest path      %.2f ns (to %s)\n", res.DelayNS, lastOf(res.CriticalPath))
	if res.Mapper == lily.MapperLily {
		fmt.Printf("lily life cycle   %d cones, %d reincarnations\n",
			res.LilyConesProcessed, res.LilyReincarnations)
	}
	if *showPath {
		fmt.Printf("critical path     %s\n", strings.Join(res.CriticalPath, " -> "))
	}
	var gates []string
	for g := range res.GateHistogram {
		gates = append(gates, g)
	}
	sort.Strings(gates)
	fmt.Printf("gate histogram   ")
	for _, g := range gates {
		fmt.Printf(" %s:%d", g, res.GateHistogram[g])
	}
	fmt.Println()
}

func lastOf(path []string) string {
	if len(path) == 0 {
		return "?"
	}
	return path[len(path)-1]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lilymap:", err)
	os.Exit(1)
}
