package registry

import "testing"

// TestRecycledEngineReuse sanity-checks the pool plumbing: releasing an
// engine and re-acquiring the same scenario returns the same instance,
// while a different scenario gets its own.
func TestRecycledEngineReuse(t *testing.T) {
	p := Params{N: 12, T: 1, Inputs: SplitInputs(12), Seed: 1}
	e1, err := AcquireTrial("core", "full", "adversary", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Run(50); err != nil {
		t.Fatal(err)
	}
	e1.Release()
	e2, err := AcquireTrial("core", "full", "adversary", p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Release()
	if e1 != e2 {
		t.Skip("pool did not hand back the released engine (GC cleared it); nothing to assert")
	}
	other, err := AcquireTrial("benor", "full", "adversary", Params{N: 12, T: 1, Inputs: SplitInputs(12), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Release()
	if other == e2 {
		t.Fatal("distinct scenarios shared one pooled engine")
	}
}
