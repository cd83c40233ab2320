package load

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/voice"
)

// The digests below pin what the generators emit for one fixed input,
// in the shape bench/traffic.go calls them. bench compares a parent
// commit with a change by running both on "the same" seeded traffic; a
// generator that drifts makes the two sides run different workloads
// and every verdict of `bench -compare` meaningless. A deliberate
// change to the traffic is a benchmark change: re-record the digests
// in that PR and re-measure the baseline.
const (
	goldenMixDigest      = "9f3f8cec644d63d100d757ee36a8c56c780c7bc17fc0141e70e9cfa359da020c"
	goldenDialogueDigest = "dcfe8395116d510c90281937c004c9f03c1e2f60e43e2a387657c27f39d9aa56"
)

func digest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

func TestGenerateGoldenDigest(t *testing.T) {
	texts := Generate(dataset.Flights(1000, 1), Options{
		Requests: 1000, Distinct: 64, Zipf: 1.3, Seed: 1,
		TargetPhrases: voice.SpokenTargetPhrases(voice.DefaultSamples("flights")),
	})
	if len(texts) != 1000 {
		t.Fatalf("generated %d texts, want 1000", len(texts))
	}
	if got := digest(texts); got != goldenMixDigest {
		t.Errorf("Generate emits different texts for the same seed:\n got %s\nwant %s\nfirst texts: %q", got, goldenMixDigest, texts[:3])
	}
}

func TestGenerateDialoguesGoldenDigest(t *testing.T) {
	dialogues := GenerateDialogues(dataset.Housing(2000, 1), DialogOptions{
		Dialogues: 100, Turns: 4, Distinct: 32, Zipf: 1.3, Seed: 1,
		TargetPhrases: voice.SpokenTargetPhrases(voice.DefaultSamples("housing")),
	})
	if len(dialogues) != 100 {
		t.Fatalf("generated %d dialogues, want 100", len(dialogues))
	}
	var lines []string
	for _, d := range dialogues {
		for _, turn := range d.Turns {
			lines = append(lines, fmt.Sprintf("%s\t%t\t%s", d.Session, turn.FollowUp, turn.Text))
		}
	}
	if got := digest(lines); got != goldenDialogueDigest {
		t.Errorf("GenerateDialogues emits different turns for the same seed:\n got %s\nwant %s\nfirst turns: %q", got, goldenDialogueDigest, lines[:3])
	}
}
