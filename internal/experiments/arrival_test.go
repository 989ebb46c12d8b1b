package experiments

import (
	"context"
	"strings"
	"testing"

	"skybyte/internal/arrival"
	"skybyte/internal/runner"
	"skybyte/internal/system"
)

// TestRunArrivalRejectsUnregisteredOrEditedSpecs: a plan declares an
// arrival run by name and the runner resolves the name when the batch
// executes, so no planned value can disagree with its registered
// definition. A name nothing registered fails Execute with the valid
// set and simulates nothing, and an edited copy of a built-in arrival
// spec cannot be registered over it.
func TestRunArrivalRejectsUnregisteredOrEditedSpecs(t *testing.T) {
	h := NewHarness(tinyOptions())
	sims := 0
	h.Verbose = func(string, *system.Result) { sims++ }
	p := h.NewPlan()
	p.Add(runner.Spec{Arrival: "never-registered", Variant: system.BaseCSSD, TotalInstr: 1000})
	if err := p.Execute(context.Background()); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Errorf("unregistered: Execute error %v, want an unknown-name error listing the valid set", err)
	}
	if sims != 0 {
		t.Fatalf("an unregistered arrival spec simulated %d runs", sims)
	}

	reg, err := arrival.ByName("open-steady")
	if err != nil {
		t.Fatal(err)
	}
	edited := reg
	edited.Cohorts = append([]arrival.Cohort(nil), reg.Cohorts...)
	edited.Cohorts[0].Process.Rate *= 2 // same name, different semantics
	if err := arrival.Register(edited); err == nil || !strings.Contains(err.Error(), "built-in") {
		t.Errorf("edited copy of a registered spec: Register error %v, want a built-in rejection", err)
	}

	// The registered definition itself plans and executes.
	p = h.NewPlan()
	pe := p.Add(runner.Spec{Arrival: reg.Name, ArrivalScale: 1, Variant: system.BaseCSSD, TotalInstr: 48_000})
	if err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if pe.Result().OpenLoop == nil {
		t.Fatal("arrival run carries no open-loop section")
	}
}
