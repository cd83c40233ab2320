package load

import (
	"testing"

	"cicero/internal/dataset"
)

func TestGenerateDialoguesDeterministic(t *testing.T) {
	rel := dataset.Housing(2000, 1)
	opts := DialogOptions{Dialogues: 50, Turns: 4, Distinct: 16, Seed: 9}
	ds := GenerateDialogues(rel, opts)
	if len(ds) != 50 {
		t.Fatalf("generated %d dialogues, want 50", len(ds))
	}
	again := GenerateDialogues(rel, opts)
	sessions := map[string]bool{}
	followups := 0
	for i, d := range ds {
		if len(again[i].Turns) != len(d.Turns) {
			t.Fatalf("generation not deterministic at dialogue %d", i)
		}
		for j, turn := range d.Turns {
			if again[i].Turns[j] != turn {
				t.Fatalf("generation not deterministic at %d/%d: %q vs %q",
					i, j, turn.Text, again[i].Turns[j].Text)
			}
			if turn.FollowUp {
				followups++
			}
		}
		if sessions[d.Session] {
			t.Fatalf("duplicate session id %q", d.Session)
		}
		sessions[d.Session] = true
		if len(d.Turns) < 2 || len(d.Turns) > opts.Turns {
			t.Errorf("dialogue %d has %d turns, want 2..%d", i, len(d.Turns), opts.Turns)
		}
		if d.Turns[0].FollowUp {
			t.Errorf("dialogue %d opens with a follow-up: %q", i, d.Turns[0].Text)
		}
		if !d.Turns[1].FollowUp {
			t.Errorf("dialogue %d second turn is not a follow-up: %q", i, d.Turns[1].Text)
		}
	}
	if followups == 0 {
		t.Fatal("workload has no follow-up turns")
	}
}
