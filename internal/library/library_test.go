package library

import (
	"math/rand"
	"slices"
	"testing"

	"lily/internal/logic"
)

func TestBigLibraryGates(t *testing.T) {
	lib := Big()
	if lib.Inv == nil || lib.Nand2 == nil {
		t.Fatal("base cells missing")
	}
	if lib.MaxFanin != 6 {
		t.Errorf("big library max fanin = %d, want 6", lib.MaxFanin)
	}
	for _, g := range lib.Gates {
		if g.NumInputs < 1 || g.NumInputs > 6 {
			t.Errorf("%s: %d inputs", g.Name, g.NumInputs)
		}
		if len(g.Timing) != g.NumInputs {
			t.Errorf("%s: %d timing entries for %d inputs", g.Name, len(g.Timing), g.NumInputs)
		}
		if g.Area <= 0 || g.Width <= 0 || g.Height != lib.RowHeight {
			t.Errorf("%s: bad physicals %v %v %v", g.Name, g.Area, g.Width, g.Height)
		}
		if len(g.Patterns) == 0 && g != lib.Buf {
			t.Errorf("%s: no patterns", g.Name)
		}
		if g == lib.Buf && len(g.Patterns) != 0 {
			t.Error("buffer must not participate in matching")
		}
		if g.InputCap <= 0 {
			t.Errorf("%s: no input cap", g.Name)
		}
		for _, pt := range g.Timing {
			if pt.IntrinsicRise <= 0 || pt.IntrinsicFall <= 0 || pt.ResistRise <= 0 || pt.ResistFall <= 0 {
				t.Errorf("%s: nonpositive timing %+v", g.Name, pt)
			}
			if pt.IntrinsicRise <= pt.IntrinsicFall {
				continue // rise must be >= fall per our CMOS skew convention
			}
		}
	}
}

func TestTinyLibraryFaninLimit(t *testing.T) {
	lib := Tiny()
	if lib.MaxFanin > 3 {
		t.Errorf("tiny library has %d-input gates", lib.MaxFanin)
	}
	if lib.GateByName("nand4") != nil {
		t.Error("tiny library must not have nand4")
	}
	if lib.GateByName("nand3") == nil {
		t.Error("tiny library missing nand3")
	}
}

func TestGateCoversFunctional(t *testing.T) {
	lib := Big()
	check := func(name string, fn func(in []bool) bool) {
		g := lib.GateByName(name)
		if g == nil {
			t.Fatalf("gate %s missing", name)
		}
		in := make([]bool, g.NumInputs)
		for r := 0; r < 1<<g.NumInputs; r++ {
			for j := range in {
				in[j] = r&(1<<j) != 0
			}
			if g.Cover.Eval(in) != fn(in) {
				t.Errorf("%s wrong at %v", name, in)
				return
			}
		}
	}
	check("inv", func(in []bool) bool { return !in[0] })
	check("nand3", func(in []bool) bool { return !(in[0] && in[1] && in[2]) })
	check("nor4", func(in []bool) bool { return !(in[0] || in[1] || in[2] || in[3]) })
	check("aoi22", func(in []bool) bool { return !(in[0] && in[1] || in[2] && in[3]) })
	check("oai21", func(in []bool) bool { return !((in[0] || in[1]) && in[2]) })
	check("xor2", func(in []bool) bool { return in[0] != in[1] })
	check("and4", func(in []bool) bool { return in[0] && in[1] && in[2] && in[3] })
}

// Every pattern of every gate must compute the gate function — this is
// enforced by a panic in generatePatterns, but exercise it explicitly.
func TestAllPatternsImplementGate(t *testing.T) {
	for _, lib := range []*Library{Tiny(), Big()} {
		for _, g := range lib.Gates {
			for _, p := range g.Patterns {
				if !patternMatchesCover(g, p.Root) {
					t.Errorf("%s/%s pattern %s wrong", lib.Name, g.Name, p)
				}
				if p.Size != patternSize(p.Root) {
					t.Errorf("%s pattern size mismatch", g.Name)
				}
			}
		}
	}
}

func TestPatternsDeduplicated(t *testing.T) {
	lib := Big()
	for _, g := range lib.Gates {
		seen := map[string]bool{}
		for _, p := range g.Patterns {
			k := p.String()
			if seen[k] {
				t.Errorf("%s: duplicate pattern %s", g.Name, k)
			}
			seen[k] = true
		}
	}
}

func TestMultipleShapesForWideGates(t *testing.T) {
	lib := Big()
	for _, name := range []string{"nand4", "nor4", "and4", "nand6"} {
		g := lib.GateByName(name)
		if len(g.Patterns) < 2 {
			t.Errorf("%s: only %d pattern(s); wide gates need shape variants", name, len(g.Patterns))
		}
	}
	// The inverter has exactly one pattern: INV(leaf).
	inv := lib.GateByName("inv")
	if len(inv.Patterns) != 1 || inv.Patterns[0].Size != 1 {
		t.Errorf("inv patterns wrong: %v", DumpPatterns(inv))
	}
	// nand2 lowers to a single bare NAND node.
	n2 := lib.GateByName("nand2")
	if len(n2.Patterns) != 1 || n2.Patterns[0].Size != 1 {
		t.Errorf("nand2 patterns wrong: %v", DumpPatterns(n2))
	}
}

func TestExprHelpers(t *testing.T) {
	e := not{or{and{in(0), in(1)}, in(2)}} // aoi21
	if numPins(e) != 3 {
		t.Errorf("numPins = %d", numPins(e))
	}
	if exprDepth(e) != 2 {
		t.Errorf("exprDepth = %d", exprDepth(e))
	}
	s := exprToSOP(e, 3)
	want := logic.AoiSOP([]int{2, 1})
	if !logic.EqualFunc(s, want) {
		t.Error("exprToSOP(aoi21) wrong")
	}
}

func TestLibraryDeterministic(t *testing.T) {
	a, b := Big(), Big()
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("gate counts differ")
	}
	for i := range a.Gates {
		if a.Gates[i].Name != b.Gates[i].Name ||
			len(a.Gates[i].Patterns) != len(b.Gates[i].Patterns) {
			t.Fatalf("gate %d differs between builds", i)
		}
		for j := range a.Gates[i].Patterns {
			if a.Gates[i].Patterns[j].String() != b.Gates[i].Patterns[j].String() {
				t.Fatalf("%s pattern %d differs", a.Gates[i].Name, j)
			}
		}
	}
}

func TestWireConstantsPresent(t *testing.T) {
	lib := Big()
	if lib.WireCapH <= 0 || lib.WireCapV <= 0 || lib.WirePitch <= 0 {
		t.Errorf("wire constants missing: %+v", lib)
	}
	if lib.WireCapV <= lib.WireCapH*0.5 || lib.WireCapV >= lib.WireCapH*3 {
		t.Errorf("wire cap anisotropy implausible: h=%v v=%v", lib.WireCapH, lib.WireCapV)
	}
}

func TestDriveStrengthOrdersResistance(t *testing.T) {
	lib := Big()
	inv := lib.GateByName("inv")
	n6 := lib.GateByName("nand6")
	if inv.Timing[0].ResistFall >= n6.Timing[0].ResistFall {
		t.Error("weak wide gate should have higher output resistance than inv")
	}
}

// refUnateness is the reference definition of unateness: for each input
// i it evaluates the cover on both sides of every x_i edge of the
// Boolean cube and records whether the output can rise or fall.
func refUnateness(cover logic.SOP) []Unateness {
	n := cover.NumInputs
	out := make([]Unateness, n)
	vals := make([]bool, n)
	for i := 0; i < n; i++ {
		canRise, canFall := false, false // output transition when input i rises
		for r := 0; r < 1<<n; r++ {
			if r&(1<<i) != 0 {
				continue // enumerate with x_i = 0
			}
			for j := 0; j < n; j++ {
				vals[j] = r&(1<<j) != 0
			}
			f0 := cover.Eval(vals)
			vals[i] = true
			f1 := cover.Eval(vals)
			vals[i] = false
			if !f0 && f1 {
				canRise = true
			}
			if f0 && !f1 {
				canFall = true
			}
		}
		switch {
		case canRise && canFall:
			out[i] = Binate
		case canFall:
			out[i] = UnateNeg
		default:
			out[i] = UnatePos
		}
	}
	return out
}

// mintermCover is the k-input table's minterm expansion built cube by
// cube, the cover the LUT path produced before NewLUTTable.
func mintermCover(k int, tt uint64) logic.SOP {
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
	return cover
}

func sameCover(a, b logic.SOP) bool {
	if a.NumInputs != b.NumInputs || len(a.Cubes) != len(b.Cubes) {
		return false
	}
	for i := range a.Cubes {
		if !slices.Equal(a.Cubes[i], b.Cubes[i]) {
			return false
		}
	}
	return true
}

// checkTable checks the bitwise unateness of one k-input table against
// the reference, and NewLUTTable against NewLUT on its minterm cover.
func checkTable(t *testing.T, k int, tt uint64) []Unateness {
	t.Helper()
	cover := mintermCover(k, tt)
	want := refUnateness(cover)
	got := make([]Unateness, k)
	ttUnateness(k, tt, got)
	if !slices.Equal(got, want) {
		t.Fatalf("k=%d tt=%#x: unateness %v, reference %v", k, tt, got, want)
	}
	a := NewLUT("f", cover, MaxLUTInputs)
	b := NewLUTTable("f", k, tt, MaxLUTInputs)
	if !slices.Equal(a.Unate, want) || !slices.Equal(b.Unate, want) {
		t.Fatalf("k=%d tt=%#x: NewLUT unateness %v, NewLUTTable %v, reference %v", k, tt, a.Unate, b.Unate, want)
	}
	if !slices.Equal(a.Timing, b.Timing) || a.Area != b.Area || a.Width != b.Width ||
		a.NumInputs != b.NumInputs || !sameCover(a.Cover, b.Cover) {
		t.Fatalf("k=%d tt=%#x: NewLUT and NewLUTTable cells differ:\n%+v\n%+v", k, tt, a, b)
	}
	return want
}

// TestUnatenessMatchesReference: the truth-table unateness equals the
// cover-evaluation definition on every table up to 3 inputs, on 2,000
// seeded random tables each at 4, 5 and 6 inputs, and on every library
// cell; and the table constructor builds the same LUT cell as NewLUT.
func TestUnatenessMatchesReference(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for tt := uint64(0); tt < 1<<(1<<k); tt++ {
			checkTable(t, k, tt)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for k := 4; k <= 6; k++ {
		mask := ^uint64(0)
		if k < 6 {
			mask = uint64(1)<<(1<<k) - 1
		}
		var seen [3]int
		for i := 0; i < 2000; i++ {
			tt := rng.Uint64()
			if i%2 == 1 {
				// A random unate function: an OR of random cubes whose
				// literals take one fixed phase per input.
				phase := rng.Uint64()
				tt = 0
				for c := rng.Intn(4); c >= 0; c-- {
					cube := ^uint64(0)
					for v := 0; v < k; v++ {
						if rng.Intn(3) == 0 {
							lit := VarTable[v]
							if phase>>v&1 == 1 {
								lit = ^lit
							}
							cube &= lit
						}
					}
					tt |= cube
				}
			}
			for _, u := range checkTable(t, k, tt&mask) {
				seen[u]++
			}
		}
		if seen[UnatePos] == 0 || seen[UnateNeg] == 0 || seen[Binate] == 0 {
			t.Fatalf("k=%d: random tables missed a unateness class: %v", k, seen)
		}
	}
	for _, lib := range []*Library{Tiny(), Big()} {
		for _, g := range lib.Gates {
			if want := refUnateness(g.Cover); !slices.Equal(g.Unate, want) {
				t.Errorf("%s/%s: unateness %v, reference %v", lib.Name, g.Name, g.Unate, want)
			}
		}
	}
}

// TestNewLUTTileBounds: a function wider than its tile, or a tile wider
// than one truth-table word, is a programming error.
func TestNewLUTTileBounds(t *testing.T) {
	for _, c := range []struct{ k, tileK int }{{5, 4}, {3, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLUTTable(k=%d, tile=%d) did not panic", c.k, c.tileK)
				}
			}()
			NewLUTTable("f", c.k, 0, c.tileK)
		}()
	}
}
