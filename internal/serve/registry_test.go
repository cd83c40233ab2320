package serve

import (
	"context"
	"errors"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/voice"
)

// newSmallAnswerer builds a tiny ACS answerer for registry tests.
func newSmallAnswerer(t testing.TB, seed int64) *Answerer {
	t.Helper()
	rel := dataset.ACS(300, seed)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"hearing"}
	cfg.MaxQueryLen = 1
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, []voice.Sample{
		{Phrase: "hearing impairment", Target: "hearing"},
	}, cfg.MaxQueryLen)
	return New(rel, store, ex, Options{})
}

func TestRegistryRegisterAndGet(t *testing.T) {
	reg := NewRegistry()
	a := newSmallAnswerer(t, 1)
	b := newSmallAnswerer(t, 2)
	if err := reg.Add("acs", a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("other", b); err != nil {
		t.Fatal(err)
	}

	if got := reg.Names(); len(got) != 2 || got[0] != "acs" || got[1] != "other" {
		t.Fatalf("Names() = %v", got)
	}
	// Get returns the very Answerer that was added.
	for name, want := range map[string]*Answerer{"acs": a, "other": b} {
		if got, err := reg.Get(name); err != nil || got != want {
			t.Fatalf("Get(%s) = %p, %v; want %p", name, got, err, want)
		}
	}
	if _, err := reg.Get("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("Get(nope) err = %v, want ErrUnknownDataset", err)
	}
}

func TestRegistryRegistrationErrors(t *testing.T) {
	reg := NewRegistry()
	a := newSmallAnswerer(t, 1)
	if err := reg.Add("", a); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.Add("y", nil); err == nil {
		t.Error("nil answerer accepted")
	}
	if err := reg.Add("dup", a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("dup", newSmallAnswerer(t, 2)); err == nil {
		t.Error("duplicate registration accepted")
	}
	if got, err := reg.Get("dup"); err != nil || got != a {
		t.Fatalf("a rejected duplicate replaced the tenant: Get(dup) = %p, %v; want %p", got, err, a)
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "dup" {
		t.Fatalf("rejected additions were mounted: Names() = %v", got)
	}
}

// gen reads an Answerer's live generation number.
func gen(a *Answerer) uint64 {
	_, g := a.StoreGen()
	return g
}

func TestRegistryPerDatasetSwap(t *testing.T) {
	reg := NewRegistry()
	aACS := newSmallAnswerer(t, 1)
	aOther := newSmallAnswerer(t, 2)
	if err := reg.Add("acs", aACS); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("other", aOther); err != nil {
		t.Fatal(err)
	}
	otherStore := aOther.Store()
	rel := aACS.live.Load().agg.Relation()

	next := engine.NewStore()
	next.Add(&engine.StoredSpeech{
		Query: engine.Query{Target: "hearing"},
		Text:  "swapped-in speech",
	})
	old, err := reg.SwapData("acs", rel, next)
	if err != nil {
		t.Fatal(err)
	}
	if old == nil || aACS.Store().Len() != 1 {
		t.Fatalf("swap did not take: old=%v len=%d", old, aACS.Store().Len())
	}
	if aOther.Store() != otherStore {
		t.Fatal("swapping acs disturbed the other dataset's store")
	}
	if gen(aACS) != 1 || gen(aOther) != 0 {
		t.Fatalf("generations: acs=%d other=%d", gen(aACS), gen(aOther))
	}

	// A publish made on the Answerer itself is the same publish.
	aACS.SwapData(rel, next)
	if gen(aACS) != 2 {
		t.Fatalf("acs generation = %d after an Answerer-level publish, want 2", gen(aACS))
	}

	if _, err := reg.SwapData("nope", rel, next); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("SwapData(nope) err = %v", err)
	}
	if _, err := reg.SwapData("acs", rel, nil); err == nil {
		t.Fatal("SwapData with a nil store reported success")
	}
	if gen(aACS) != 2 || gen(aOther) != 0 {
		t.Fatalf("failed publishes moved a number: acs=%d other=%d", gen(aACS), gen(aOther))
	}
}
