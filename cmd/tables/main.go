// Command tables regenerates the paper's evaluation tables: Table 1 (area
// mode: instance area, final chip area, and total interconnect length after
// detailed routing; MIS 2.1 vs Lily) and Table 2 (timing mode: instance
// area and longest path delay; MIS 2.1 vs Lily).
//
// The benchmark suite fans out across the concurrent flow engine's worker
// pool (each circuit × mapper run is an independent, deterministic job),
// while rows print in suite order — the numbers are identical to a
// sequential run.
//
// With -server the suite is submitted to a running lilyd (or a whole
// cluster — any node works, jobs route to their digest owners) through
// the batch API: one POST /v1/batches, then the NDJSON result stream
// fills rows as they complete. Because mapping is deterministic, the
// remote tables are byte-identical to local ones.
//
// Usage:
//
//	tables -table 1            # Table 1 over the full suite
//	tables -table 2            # Table 2 over the 12 timing circuits
//	tables -table 1 -only C432 # single row
//	tables -table 1 -workers 4 # bound the worker pool
//	tables -table 1 -server http://localhost:8081   # via lilyd batch API
//	tables -table 1 -target lut4                    # extra FPGA columns
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"

	"lily"
	"lily/internal/engine"
	"lily/internal/server"
)

func main() {
	table := flag.Int("table", 1, "which table to regenerate (1 or 2)")
	only := flag.String("only", "", "run a single named circuit")
	verify := flag.Bool("verify", false, "verify mapped netlists against the source circuits")
	autotune := flag.Bool("autotune", false, "let Lily retry with the paper's §5 remedies and keep the best run")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "flow-engine worker-pool size")
	parallelism := flag.Int("parallelism", 0,
		"intra-job workers for the placement solves (0 = sequential; results are bit-identical at any setting)")
	serverURL := flag.String("server", "", "lilyd base URL; run the suite through its batch API instead of in-process")
	target := flag.String("target", "asic",
		"add FPGA columns mapped at this technology target: asic (none), lut4, or lut6")
	flag.Parse()

	tgt, err := lily.ParseTechnologyTarget(*target)
	if err != nil {
		fatal(err)
	}

	var names []string
	switch *table {
	case 1:
		names = lily.BenchmarkNames()
	case 2:
		names = lily.Table2Names()
	default:
		fmt.Fprintf(os.Stderr, "tables: unknown table %d\n", *table)
		os.Exit(2)
	}
	if *only != "" {
		names = []string{*only}
	}

	objective := lily.ObjectiveArea
	if *table == 2 {
		objective = lily.ObjectiveDelay
	}

	var rows map[string]row
	if *serverURL != "" {
		rows = submitBatch(*serverURL, names, objective, tgt, *verify, *autotune, *parallelism)
	} else {
		eng := engine.New(engine.Config{Workers: *workers, Parallelism: *parallelism})
		defer func() { _ = eng.Shutdown(context.Background()) }()
		rows = submitSuite(eng, names, objective, tgt, *verify, *autotune)
	}

	if *table == 1 {
		runTable1(names, rows, tgt)
	} else {
		runTable2(names, rows, tgt)
	}
}

// row yields one table line: the MIS and Lily results of a circuit,
// plus the Lily FPGA result when a LUT target is selected (nil
// otherwise). reap blocks until all are available.
type row interface {
	reap() (m, l, f *lily.FlowResult)
}

// jobRow holds the in-process engine jobs of one table line. fpga is
// nil unless a LUT target was requested.
type jobRow struct {
	mis, lily, fpga *engine.Job
}

// submitSuite fans the whole suite out across the engine's worker pool:
// one job per circuit × mapper, submitted up front so workers stay busy
// while rows are reaped in print order.
func submitSuite(eng *engine.Engine, names []string, objective lily.Objective, tgt lily.TechnologyTarget, verify, autotune bool) map[string]row {
	ctx := context.Background()
	rows := make(map[string]row, len(names))
	for _, name := range names {
		m, err := eng.Submit(ctx, engine.Request{
			Benchmark: name,
			Options: lily.FlowOptions{
				Mapper: lily.MapperMIS, Objective: objective, VerifyEquivalence: verify},
		})
		if err != nil {
			fatal(err)
		}
		l, err := eng.Submit(ctx, engine.Request{
			Benchmark: name,
			Options: lily.FlowOptions{
				Mapper: lily.MapperLily, Objective: objective,
				AutoTune: autotune, VerifyEquivalence: verify},
		})
		if err != nil {
			fatal(err)
		}
		r := jobRow{mis: m, lily: l}
		if tgt != lily.TargetASIC {
			r.fpga, err = eng.Submit(ctx, engine.Request{
				Benchmark: name,
				Options: lily.FlowOptions{
					Mapper: lily.MapperLily, Objective: objective, Target: tgt,
					VerifyEquivalence: verify},
			})
			if err != nil {
				fatal(err)
			}
		}
		rows[name] = r
	}
	return rows
}

// reap blocks until the jobs of a row finish and returns their results.
func (r jobRow) reap() (m, l, f *lily.FlowResult) {
	ctx := context.Background()
	mo, err := r.mis.Wait(ctx)
	if err != nil {
		fatal(err)
	}
	lo, err := r.lily.Wait(ctx)
	if err != nil {
		fatal(err)
	}
	if r.fpga == nil {
		return mo.Result, lo.Result, nil
	}
	fo, err := r.fpga.Wait(ctx)
	if err != nil {
		fatal(err)
	}
	return mo.Result, lo.Result, fo.Result
}

// remoteRow holds the futures filled by the batch-stream collector. The
// channels are buffered so the collector never blocks on a row the
// printer hasn't reached yet. fpga is nil unless a LUT target was
// requested.
type remoteRow struct {
	mis, lily, fpga chan *lily.FlowResult
}

func (r remoteRow) reap() (m, l, f *lily.FlowResult) {
	m, l = <-r.mis, <-r.lily
	if r.fpga != nil {
		f = <-r.fpga
	}
	return m, l, f
}

// submitBatch runs the suite through a lilyd batch: one POST with two
// jobs per circuit (stride i = MIS, i+1 = Lily, and i+2 = Lily at the
// LUT target when one is selected), then a collector goroutine drains
// the NDJSON result stream into per-row futures. Rows still print in
// suite order; the stream arrives in completion order.
func submitBatch(base string, names []string, objective lily.Objective, tgt lily.TechnologyTarget, verify, autotune bool, parallelism int) map[string]row {
	base = strings.TrimRight(base, "/")
	obj := "area"
	if objective == lily.ObjectiveDelay {
		obj = "delay"
	}
	stride := 2
	if tgt != lily.TargetASIC {
		stride = 3
	}
	req := server.BatchSubmitRequest{Jobs: make([]server.SubmitRequest, 0, stride*len(names))}
	for _, name := range names {
		req.Jobs = append(req.Jobs,
			server.SubmitRequest{Benchmark: name, Options: server.JobOptions{
				Mapper: "mis", Objective: obj, Verify: verify}},
			server.SubmitRequest{Benchmark: name, Options: server.JobOptions{
				Mapper: "lily", Objective: obj, Verify: verify, AutoTune: autotune,
				Parallelism: parallelism}},
		)
		if stride == 3 {
			req.Jobs = append(req.Jobs,
				server.SubmitRequest{Benchmark: name, Options: server.JobOptions{
					Mapper: "lily", Objective: obj, Target: tgt.String(),
					Verify: verify, Parallelism: parallelism}},
			)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	client := &http.Client{} // no client timeout: the stream lasts as long as the suite
	resp, err := client.Post(base+"/v1/batches", "application/json", strings.NewReader(string(body)))
	if err != nil {
		fatal(err)
	}
	var ack server.BatchSubmitResponse
	if resp.StatusCode != http.StatusAccepted {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		fatal(fmt.Errorf("batch submit: %s: %s", resp.Status, e.Error))
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		resp.Body.Close()
		fatal(fmt.Errorf("batch submit: decoding ack: %w", err))
	}
	resp.Body.Close()

	rows := make(map[string]row, len(names))
	byIndex := make([]chan *lily.FlowResult, stride*len(names))
	for i, name := range names {
		r := remoteRow{
			mis:  make(chan *lily.FlowResult, 1),
			lily: make(chan *lily.FlowResult, 1),
		}
		byIndex[stride*i], byIndex[stride*i+1] = r.mis, r.lily
		if stride == 3 {
			r.fpga = make(chan *lily.FlowResult, 1)
			byIndex[stride*i+2] = r.fpga
		}
		rows[name] = r
	}
	go streamBatch(client, base+ack.Stream, byIndex)
	return rows
}

// streamBatch drains one batch's NDJSON stream, routing each line's
// result to its index's future. Any failed job (or a broken stream)
// aborts the run — a table with holes is worse than no table.
func streamBatch(client *http.Client, url string, byIndex []chan *lily.FlowResult) {
	resp, err := client.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("batch stream: %s", resp.Status))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	seen := 0
	for sc.Scan() {
		var line server.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			fatal(fmt.Errorf("batch stream: bad line: %w", err))
		}
		if line.State != "done" || line.Result == nil {
			fatal(fmt.Errorf("job %s (%s): state %s: %s",
				line.JobID, line.Benchmark, line.State, line.Error))
		}
		if line.Index < 0 || line.Index >= len(byIndex) {
			fatal(fmt.Errorf("batch stream: index %d out of range", line.Index))
		}
		byIndex[line.Index] <- line.Result
		seen++
	}
	if err := sc.Err(); err != nil {
		fatal(fmt.Errorf("batch stream: %w", err))
	}
	if seen != len(byIndex) {
		fatal(fmt.Errorf("batch stream ended after %d of %d results", seen, len(byIndex)))
	}
}

func runTable1(names []string, rows map[string]row, tgt lily.TechnologyTarget) {
	fmt.Println("Table 1: area mode — MIS2.1 vs Lily (instance area, chip area, wirelength)")
	fmt.Printf("%-8s | %10s %10s %8s | %10s %10s %8s | %6s %6s %6s",
		"Ex.", "mis inst", "mis chip", "mis WL", "lily inst", "lily chip", "lily WL",
		"Δinst", "Δchip", "ΔWL")
	if tgt != lily.TargetASIC {
		fmt.Printf(" | %9s %8s", tgt.String()+" n", tgt.String()+" WL")
	}
	fmt.Println()
	fmt.Printf("%-8s | %10s %10s %8s | %10s %10s %8s | %6s %6s %6s",
		"", "mm²", "mm²", "mm", "mm²", "mm²", "mm", "%", "%", "%")
	if tgt != lily.TargetASIC {
		fmt.Printf(" | %9s %8s", "LUTs", "mm")
	}
	fmt.Println()
	var sumMI, sumMC, sumMW, sumLI, sumLC, sumLW float64
	var sumFN int
	var gi, gc, gw float64 // geometric-mean accumulators (log-free: products)
	count := 0
	for _, name := range names {
		m, l, f := rows[name].reap()
		fmt.Printf("%-8s | %10.3f %10.3f %8.2f | %10.3f %10.3f %8.2f | %+6.1f %+6.1f %+6.1f",
			name, m.ActiveAreaMM2, m.ChipAreaMM2, m.WirelengthMM,
			l.ActiveAreaMM2, l.ChipAreaMM2, l.WirelengthMM,
			pct(l.ActiveAreaMM2, m.ActiveAreaMM2),
			pct(l.ChipAreaMM2, m.ChipAreaMM2),
			pct(l.WirelengthMM, m.WirelengthMM))
		if f != nil {
			fmt.Printf(" | %9d %8.2f", f.Gates, f.WirelengthMM)
			sumFN += f.Gates
		}
		fmt.Println()
		sumMI += m.ActiveAreaMM2
		sumMC += m.ChipAreaMM2
		sumMW += m.WirelengthMM
		sumLI += l.ActiveAreaMM2
		sumLC += l.ChipAreaMM2
		sumLW += l.WirelengthMM
		gi += pct(l.ActiveAreaMM2, m.ActiveAreaMM2)
		gc += pct(l.ChipAreaMM2, m.ChipAreaMM2)
		gw += pct(l.WirelengthMM, m.WirelengthMM)
		count++
	}
	fmt.Printf("%-8s | %10.3f %10.3f %8.2f | %10.3f %10.3f %8.2f | %+6.1f %+6.1f %+6.1f",
		"TOTAL", sumMI, sumMC, sumMW, sumLI, sumLC, sumLW,
		pct(sumLI, sumMI), pct(sumLC, sumMC), pct(sumLW, sumMW))
	if tgt != lily.TargetASIC {
		fmt.Printf(" | %9d %8s", sumFN, "")
	}
	fmt.Println()
	fmt.Printf("average per-circuit change: inst %+.1f%%  chip %+.1f%%  WL %+.1f%%\n",
		gi/float64(count), gc/float64(count), gw/float64(count))
	fmt.Println("paper reports: inst +1.9%  chip -5%  WL -7% (averages)")
}

func runTable2(names []string, rows map[string]row, tgt lily.TechnologyTarget) {
	fmt.Println("Table 2: timing mode — MIS2.1 vs Lily (instance area, longest path delay)")
	fmt.Printf("%-8s | %10s %8s | %10s %8s | %6s %6s",
		"Ex.", "mis inst", "mis dly", "lily inst", "lily dly", "Δinst", "Δdly")
	if tgt != lily.TargetASIC {
		fmt.Printf(" | %9s %8s", tgt.String()+" n", tgt.String()+" dly")
	}
	fmt.Println()
	var sumMD, sumLD, dAcc float64
	count := 0
	for _, name := range names {
		m, l, f := rows[name].reap()
		fmt.Printf("%-8s | %10.3f %8.2f | %10.3f %8.2f | %+6.1f %+6.1f",
			name, m.ActiveAreaMM2, m.DelayNS, l.ActiveAreaMM2, l.DelayNS,
			pct(l.ActiveAreaMM2, m.ActiveAreaMM2), pct(l.DelayNS, m.DelayNS))
		if f != nil {
			fmt.Printf(" | %9d %8.2f", f.Gates, f.DelayNS)
		}
		fmt.Println()
		sumMD += m.DelayNS
		sumLD += l.DelayNS
		dAcc += pct(l.DelayNS, m.DelayNS)
		count++
	}
	fmt.Printf("average delay change: %+.1f%% (paper reports -8%%)\n", dAcc/float64(count))
}

func pct(lilyVal, misVal float64) float64 {
	if misVal == 0 {
		return 0
	}
	return (lilyVal - misVal) / misVal * 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
