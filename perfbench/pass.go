package main

import (
	"bytes"
	"context"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"lily"
)

// output is what one job handed back to its caller.
type output struct {
	blif []byte
	res  *lily.FlowResult
	err  error
}

// pass is one timed run of every job of a workload through the public
// entry point, with tracing off.
type pass struct {
	wallS, cpuS float64
	peakHeapMB  float64
	outputs     []output
}

// runPass maps every job back to back, as a closed loop with one client.
// The clock covers parsing the input BLIF and lily.WriteMappedBLIFContext;
// checking the outputs is left to the caller, outside the timed region.
func runPass(ctx context.Context, jobs []job) pass {
	var ps pass
	hs := startHeapSampler()
	ps.outputs = make([]output, len(jobs))
	for i, j := range jobs {
		collect()
		cpu0, t0 := cpuSeconds(), time.Now()
		ps.outputs[i] = mapJob(ctx, j)
		ps.wallS += time.Since(t0).Seconds()
		ps.cpuS += cpuSeconds() - cpu0
	}
	ps.peakHeapMB = float64(hs.stop()) / 1e6
	return ps
}

// collect runs a garbage collection outside the clock, so that every job
// starts from a collected heap instead of paying, at a point that varies
// from run to run, for the previous job's garbage.
func collect() { runtime.GC() }

// mapJob is one request to the public API: parse the BLIF the job
// arrives as, map it, and emit the mapped, placed netlist.
func mapJob(ctx context.Context, j job) output {
	c, err := lily.LoadBLIF(bytes.NewReader(j.input))
	if err != nil {
		return output{err: err}
	}
	var buf bytes.Buffer
	res, err := lily.WriteMappedBLIFContext(ctx, c, j.opt, &buf)
	return output{blif: buf.Bytes(), res: res, err: err}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapObjects is the runtime metric read for the peak heap: bytes in
// heap objects, live or not yet swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler polls the Go heap in use until stopped and keeps the
// highest reading.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

// heapSamplePeriod trades resolution for interference with the pass: a
// heap peak lasts at least one GC cycle, far longer than this.
const heapSamplePeriod = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	hs := &heapSampler{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapObjects}}
		var peak uint64
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-hs.done:
				hs.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// stop ends the sampling goroutine, waits for it, and returns the peak.
func (hs *heapSampler) stop() uint64 {
	close(hs.done)
	return <-hs.peak
}
