package core

import (
	"context"
	"errors"
	"testing"

	"lily/internal/library"
	"lily/internal/obs"
	"lily/internal/place"
)

// countdownCtx is a context whose Err starts reporting context.Canceled
// at its cancelAt-th call.
type countdownCtx struct {
	context.Context
	cancelAt, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestMapPlacedCancelledMidCover cancels cover partway through the cone
// loop, after some cones have committed and before the last one: the
// run must stop with context.Canceled and return no partial result.
func TestMapPlacedCancelledMidCover(t *testing.T) {
	_, sub := subjectFor(t, "C5315")
	lib := library.Big()
	opt := DefaultOptions(ModeArea)
	pl, err := place.GlobalContext(context.Background(), sub, baseWidth(sub, lib), lib.RowHeight, opt.Place)
	if err != nil {
		t.Fatal(err)
	}

	cones := len(sub.POs) // one cancellation check per cone
	if cones < 3 {
		t.Fatalf("%d cones; cannot cancel mid-loop", cones)
	}

	fm := obs.RegisterFlowMetrics(obs.NewRegistry())
	ctx := &countdownCtx{
		Context:  obs.ContextWithFlowMetrics(context.Background(), fm),
		cancelAt: cones / 2,
	}
	res, err := MapPlacedContext(ctx, sub, lib, pl, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a result")
	}
	if got := fm.ConesMapped.Value(); got == 0 || got >= uint64(cones) {
		t.Fatalf("%d of %d cones committed before cancellation, want a mid-loop stop", got, cones)
	}
}
