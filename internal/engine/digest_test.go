package engine

import (
	"context"
	"testing"

	"lily"
)

// digestFixtureBLIF is a frozen circuit source: the pinned digest below
// depends on its canonical serialization.
const digestFixtureBLIF = `.model pinned
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
10 1
.end
`

// TestRequestDigestFormat pins the exported request-digest format. The
// digest is the cluster's routing and cache key: every node must derive
// the same value for the same request, and a change to the key
// derivation silently invalidates every cache tier and reshuffles job
// ownership. If this test fails you have changed the wire format —
// that's allowed, but it must be deliberate: update the constant AND
// bump the cluster protocol note in DESIGN.md §12.
func TestRequestDigestFormat(t *testing.T) {
	req := Request{
		BLIF: []byte(digestFixtureBLIF),
		Options: lily.FlowOptions{
			Mapper:    lily.MapperLily,
			Objective: lily.ObjectiveArea,
		},
	}
	got, err := RequestDigest(req)
	if err != nil {
		t.Fatalf("RequestDigest: %v", err)
	}
	if len(got) != 64 {
		t.Fatalf("digest %q is %d chars, want 64 (hex SHA-256)", got, len(got))
	}
	for _, r := range got {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			t.Fatalf("digest %q contains non-lowercase-hex rune %q", got, r)
		}
	}
	const want = "e9d23b9792de208c914f5208103fb1661521b52d3ea07a2985794c4795403b78"
	if got != want {
		t.Fatalf("digest format changed:\n got %s\nwant %s", got, want)
	}
}

// TestRequestDigestSensitivity checks which request fields are (and are
// not) part of the digest. Artifact selection changes the outcome, so it
// must change the key; LocalOnly is pure routing and must not.
func TestRequestDigestSensitivity(t *testing.T) {
	base := Request{
		BLIF:    []byte(digestFixtureBLIF),
		Options: lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea},
	}
	d0, err := RequestDigest(base)
	if err != nil {
		t.Fatalf("RequestDigest: %v", err)
	}

	svg := base
	svg.RenderSVG = true
	if d, _ := RequestDigest(svg); d == d0 {
		t.Fatalf("RenderSVG did not change digest")
	}
	emit := base
	emit.EmitBLIF = true
	if d, _ := RequestDigest(emit); d == d0 {
		t.Fatalf("EmitBLIF did not change digest")
	}
	if ds, _ := RequestDigest(svg); func() string { d, _ := RequestDigest(emit); return d }() == ds {
		t.Fatalf("SVG and EmitBLIF digests collide")
	}
	local := base
	local.LocalOnly = true
	if d, _ := RequestDigest(local); d != d0 {
		t.Fatalf("LocalOnly changed digest: routing flags must not affect the cache key")
	}
	par := base
	par.Options.Parallelism = 8
	if d, _ := RequestDigest(par); d != d0 {
		t.Fatalf("Parallelism changed digest: the output is bit-identical at any setting, so the throughput knob must not fragment the cache")
	}
	ml := base
	ml.Options.MultilevelThreshold = 5000
	if d, _ := RequestDigest(ml); d == d0 {
		t.Fatalf("MultilevelThreshold did not change digest: placements differ across thresholds")
	}
	mlOff := base
	mlOff.Options.MultilevelThreshold = -1
	dOff, _ := RequestDigest(mlOff)
	if dOff == d0 {
		t.Fatalf("disabling multilevel did not change digest")
	}
	mlOff2 := base
	mlOff2.Options.MultilevelThreshold = -7
	if d, _ := RequestDigest(mlOff2); d != dOff {
		t.Fatalf("negative MultilevelThreshold spellings fragment the cache: every negative value means disabled")
	}
	for _, tc := range []struct {
		name string
		a, b func(*lily.FlowOptions)
	}{
		// Core re-places only when ReplaceEvery > 0.
		{"ReplaceEvery -1 vs 0",
			func(o *lily.FlowOptions) { o.ReplaceEvery = -1 },
			func(o *lily.FlowOptions) { o.ReplaceEvery = 0 }},
		// The flow runs slack analysis only when ClockPeriodNS > 0.
		{"ClockPeriodNS -5 vs 0",
			func(o *lily.FlowOptions) { o.ClockPeriodNS = -5 },
			func(o *lily.FlowOptions) { o.ClockPeriodNS = 0 }},
	} {
		ra, rb := base, base
		tc.a(&ra.Options)
		tc.b(&rb.Options)
		da, _ := RequestDigest(ra)
		if db, _ := RequestDigest(rb); da != db {
			t.Errorf("%s: equivalent spellings fragment the cache (%s vs %s)", tc.name, da, db)
		}
	}
	delay := base
	delay.Options.Objective = lily.ObjectiveDelay
	if d, _ := RequestDigest(delay); d == d0 {
		t.Fatalf("objective did not change digest")
	}
	lut := base
	lut.Options.Target = lily.TargetLUT4
	if d, _ := RequestDigest(lut); d == d0 {
		t.Fatalf("target did not change digest: lut4 and asic results must not share a cache entry")
	}
	lut6 := base
	lut6.Options.Target = lily.TargetLUT6
	d4, _ := RequestDigest(lut)
	if d, _ := RequestDigest(lut6); d == d4 {
		t.Fatalf("lut4 and lut6 digests collide")
	}
}

// TestStatusExposesDigest checks the satellite contract: a submitted
// job's Status carries the same digest RequestDigest computes, so
// clients can correlate jobs with cluster ownership and cache entries.
func TestStatusExposesDigest(t *testing.T) {
	e := New(Config{Workers: 1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		return fakeOutcome(req.Benchmark), nil
	}})
	defer shutdown(t, e)

	req := Request{Benchmark: "misex1"}
	want, err := RequestDigest(req)
	if err != nil {
		t.Fatalf("RequestDigest: %v", err)
	}
	j, err := e.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st := j.Status(); st.Digest != want {
		t.Fatalf("Status.Digest = %s, want %s", st.Digest, want)
	}
}
