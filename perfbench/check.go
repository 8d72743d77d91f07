package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"lily"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/netlist"
)

// pins maps a golden key of testdata/golden.json to its pinned SHA-256:
// mapped-BLIF hashes under "<circuit>/<objective>[/<target>]", generated
// input hashes under "gen/<circuit>".
type pins map[string]string

func loadPins(path string) (pins, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden pins: %w", err)
	}
	var entries map[string]struct {
		SHA string `json:"blif_sha256"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	p := make(pins, len(entries))
	for k, e := range entries {
		p[k] = e.SHA
	}
	return p, nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkInput confirms a generated input against its "gen/<circuit>" pin,
// which exists for the scale suite at the pinned seed only.
func (p pins) checkInput(j job, seed int64) error {
	want, ok := p["gen/"+j.profile]
	if seed != 0 || !ok {
		return nil
	}
	if got := sha(j.input); got != want {
		return fmt.Errorf("%s: generated input hash %s, pinned %s", j.profile, got, want)
	}
	return nil
}

// simVectors is the number of random input vectors simulated per job
// when no pin applies.
const simVectors = 64

// checkOutput validates one job's mapped BLIF: against the golden hash
// where one is pinned for this seed, otherwise by simulating random
// vectors through the source network and the mapped netlist.
func (p pins) checkOutput(j job, seed int64, out output) error {
	if out.err != nil {
		return fmt.Errorf("%s: %w", j.key, out.err)
	}
	if want, ok := p[j.key]; ok && seed == 0 {
		if got := sha(out.blif); got != want {
			return fmt.Errorf("%s: mapped BLIF hash %s, pinned %s", j.key, got, want)
		}
		return nil
	}
	if err := simulate(j, seed, out.blif); err != nil {
		return fmt.Errorf("%s: %w", j.key, err)
	}
	return nil
}

// simulate compares the source circuit and the mapped netlist on
// simVectors random input vectors, each evaluated by the Eval method of
// its own representation.
func simulate(j job, seed int64, mapped []byte) error {
	src, err := lily.LoadBLIF(bytes.NewReader(j.input))
	if err != nil {
		return fmt.Errorf("parse input: %w", err)
	}
	lib, err := libraryFor(mapped)
	if err != nil {
		return err
	}
	nl, err := netlist.ParseBLIF(bytes.NewReader(mapped), lib)
	if err != nil {
		return fmt.Errorf("parse mapped netlist: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	names := src.InputNames()
	in := make(map[string]bool, len(names))
	for v := 0; v < simVectors; v++ {
		for _, name := range names {
			in[name] = rng.Intn(2) == 1
		}
		want, err := src.Eval(in)
		if err != nil {
			return fmt.Errorf("simulate source: %w", err)
		}
		got, err := nl.Eval(in)
		if err != nil {
			return fmt.Errorf("simulate mapped netlist: %w", err)
		}
		if len(got) != len(want) {
			return fmt.Errorf("mapped netlist has %d outputs, source %d", len(got), len(want))
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				return fmt.Errorf("output %q differs from the source on vector %d", name, v)
			}
		}
	}
	return nil
}

// libraryFor returns the big standard-cell library extended with every
// LUT cell the mapped BLIF instantiates. LUT cells are synthesized per
// truth table and named "lut<k>_<hex truth table>", so the name alone
// defines the cell's function.
func libraryFor(mapped []byte) (*library.Library, error) {
	lib := library.Big()
	seen := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(mapped))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || f[0] != ".gate" || !strings.HasPrefix(f[1], "lut") || seen[f[1]] {
			continue
		}
		seen[f[1]] = true
		g, err := lutCell(f[1])
		if err != nil {
			return nil, err
		}
		lib.Gates = append(lib.Gates, g)
	}
	return lib, sc.Err()
}

// lutCell decodes a "lut<k>_<hex>" cell name into its gate: row r of the
// truth table (input i = bit i of r) is bit r of the hex number.
func lutCell(name string) (*library.Gate, error) {
	ks, hexTT, ok := strings.Cut(strings.TrimPrefix(name, "lut"), "_")
	k, kerr := strconv.Atoi(ks)
	tt, terr := strconv.ParseUint(hexTT, 16, 64)
	if !ok || kerr != nil || terr != nil || k < 1 || k > 6 {
		return nil, fmt.Errorf("malformed LUT cell name %q", name)
	}
	cover := logic.NewSOP(k)
	for r := 0; r < 1<<k; r++ {
		if tt>>r&1 == 0 {
			continue
		}
		cube := make(logic.Cube, k)
		for i := range cube {
			cube[i] = logic.LitNeg
			if r>>i&1 == 1 {
				cube[i] = logic.LitPos
			}
		}
		cover.AddCube(cube)
	}
	return library.NewLUT(name, cover, 6), nil
}
