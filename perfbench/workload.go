package main

import (
	"bytes"
	"fmt"

	"lily"
	"lily/internal/bench"
	"lily/internal/logic"
)

// workload is one set of mapping jobs the benchmark runs. Every workload
// is a closed loop with one client: jobs run back to back in one process,
// each job's mapping using at most `parallelism` threads.
type workload struct {
	name string
	// why is the one-sentence reason the workload exists; BENCHMARK.json
	// carries the same sentence.
	why         string
	profiles    []string
	objectives  []lily.Objective
	target      lily.TechnologyTarget
	parallelism int
	// equivProbe makes the traced run check every area-mode job's
	// mapped netlist with equiv.Check, outside the traced pass: the work
	// FlowOptions.VerifyEquivalence adds to a job.
	equivProbe bool
}

// paperSuite is the paper's fifteen circuits, in Table 1 order.
func paperSuite() []string {
	var names []string
	for _, p := range bench.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

var workloads = []workload{
	{
		name:        "paper-asic",
		why:         "paper regime: 15 circuits x {area, delay} on standard cells, the match backend feeding the cover DP; closed loop, one client, P=1",
		profiles:    paperSuite(),
		objectives:  []lily.Objective{lily.ObjectiveArea, lily.ObjectiveDelay},
		target:      lily.TargetASIC,
		parallelism: 1,
		equivProbe:  true,
	},
	{
		name:        "paper-lut6",
		why:         "the same cover DP fed by K-feasible cut enumeration for LUT6 instead of matching; 15 circuits, area; closed loop, one client, P=1",
		profiles:    paperSuite(),
		objectives:  []lily.Objective{lily.ObjectiveArea},
		target:      lily.TargetLUT6,
		parallelism: 1,
	},
	{
		name:        "scale-gen50k",
		why:         "scale regime: one 77k-node gen50k circuit, the only size where multilevel placement engages; closed loop, one client, P=2",
		profiles:    []string{"gen50k"},
		objectives:  []lily.Objective{lily.ObjectiveArea},
		target:      lily.TargetASIC,
		parallelism: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// job is one mapping request: the generated input BLIF and the options
// the public entry point receives.
type job struct {
	profile string
	// key names the job the way testdata/golden.json does:
	// "<circuit>/<objective>" on ASIC, "<circuit>/<objective>/<target>"
	// on LUTs.
	key   string
	input []byte
	opt   lily.FlowOptions
}

// reseed derives the profile seed used at workload seed s. Seed 0 keeps
// every profile's pinned seed, so the default run reproduces the golden
// hashes; any other seed re-seeds every profile (splitmix64 of the pair),
// so a claim can be re-checked on circuits no one tuned against.
func reseed(pinned, s int64) int64 {
	if s == 0 {
		return pinned
	}
	z := uint64(s)*0x9e3779b97f4a7c15 ^ uint64(pinned)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// generateInput builds one profile's circuit at workload seed s and
// serializes it as BLIF, the form in which jobs reach the program.
func generateInput(profile string, s int64) (blif []byte, err error) {
	p, ok := bench.ProfileByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	p.Seed = reseed(p.Seed, s)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("generate %s at seed %d: %v", profile, s, r)
		}
	}()
	net := bench.Generate(p)
	var buf bytes.Buffer
	if err := logic.WriteBLIF(&buf, net); err != nil {
		return nil, fmt.Errorf("serialize %s: %w", profile, err)
	}
	return buf.Bytes(), nil
}

// jobs generates the workload's inputs at seed s, one job per
// (profile, objective) pair in profile order.
func (w workload) jobs(s int64) ([]job, error) {
	var out []job
	for _, name := range w.profiles {
		input, err := generateInput(name, s)
		if err != nil {
			return nil, err
		}
		for _, obj := range w.objectives {
			key := name + "/" + obj.String()
			if w.target != lily.TargetASIC {
				key += "/" + w.target.String()
			}
			out = append(out, job{
				profile: name,
				key:     key,
				input:   input,
				opt: lily.FlowOptions{
					Mapper:      lily.MapperLily,
					Objective:   obj,
					Target:      w.target,
					Parallelism: w.parallelism,
				},
			})
		}
	}
	return out, nil
}
