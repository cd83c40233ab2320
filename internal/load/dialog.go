package load

import (
	"fmt"
	"math/rand"
	"strings"

	"cicero/internal/relation"
)

// Dialogue workload: instead of independent one-shot requests, a
// multi-turn session — an opening question plus elliptical follow-ups
// ("what about Texas", "and the lowest", "how about the top three") —
// to be replayed under its own session id. Turns within a dialogue are
// strictly sequential (a follow-up only makes sense after its
// predecessor's answer); dialogues may run concurrently against each
// other.

// Turn is one utterance of a dialogue.
type Turn struct {
	Text string `json:"text"`
	// FollowUp marks a turn that only resolves against the dialogue's
	// context; these are the turns a resolution rate is measured over.
	FollowUp bool `json:"followup"`
}

// Dialogue is one session: an opening question and its follow-ups,
// replayed in order under Session.
type Dialogue struct {
	Session string `json:"session"`
	Turns   []Turn `json:"turns"`
}

// DialogOptions shapes dialogue workload generation.
type DialogOptions struct {
	// Dialogues is the number of sessions (default 100).
	Dialogues int
	// Turns bounds the turns per dialogue including the opening
	// (default 4); each dialogue gets 2..Turns turns.
	Turns int
	// Distinct bounds the pool of distinct opening questions
	// (default 32).
	Distinct int
	// Zipf is the popularity skew over the opening pool (default 1.3):
	// dialogues open with hot questions, like real traffic, but the
	// follow-ups keep the session path uncacheable anyway.
	Zipf float64
	// Seed makes generation deterministic.
	Seed int64
	// TargetPhrases lists spoken names per target column; column names
	// are used when empty.
	TargetPhrases map[string][]string
}

func (o DialogOptions) withDefaults() DialogOptions {
	if o.Dialogues <= 0 {
		o.Dialogues = 100
	}
	if o.Turns < 2 {
		o.Turns = 4
	}
	if o.Distinct <= 0 {
		o.Distinct = 32
	}
	if o.Zipf <= 1 {
		o.Zipf = 1.3
	}
	return o
}

// dialogOpening is one opening-pool entry; the raw dimension name rides
// along so follow-up value turns can draw from a different dimension.
type dialogOpening struct {
	text string
	dim  int
}

// GenerateDialogues synthesizes a deterministic dialogue workload over
// rel. Every dialogue opens with an extremum question (the followable
// kind: it leaves a grouping dimension in the session context for the
// follow-ups to lean on) and continues with value, direction, and
// ranking follow-ups. Value follow-ups within one dialogue draw from a
// single dimension, so successive predicates replace each other rather
// than stacking the subset empty.
func GenerateDialogues(rel *relation.Relation, opts DialogOptions) []Dialogue {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	words := []string{"highest", "lowest", "most", "fewest", "largest", "smallest"}
	targets := rel.Schema().Targets
	dims := rel.Schema().Dimensions
	pool := make([]dialogOpening, 0, opts.Distinct)
	seen := map[string]bool{}
	for i := 0; len(pool) < opts.Distinct && i < opts.Distinct*8; i++ {
		target := spokenTarget(rng, Options{TargetPhrases: opts.TargetPhrases}, targets[rng.Intn(len(targets))])
		d := rng.Intn(len(dims))
		text := fmt.Sprintf("which %s has the %s %s",
			strings.ReplaceAll(dims[d], "_", " "), words[rng.Intn(len(words))], target)
		if !seen[text] {
			seen[text] = true
			pool = append(pool, dialogOpening{text: text, dim: d})
		}
	}
	if len(pool) == 0 {
		return nil
	}
	zipf := rand.NewZipf(rng, opts.Zipf, 1, uint64(len(pool)-1))

	directionForms := []string{"and the lowest", "and the highest", "what about the lowest"}
	rankForms := []string{"what about the top three", "and the bottom two", "how about the top five"}
	valueForms := []string{"what about %s", "how about %s"}

	dialogues := make([]Dialogue, 0, opts.Dialogues)
	for i := 0; i < opts.Dialogues; i++ {
		opening := pool[zipf.Uint64()]
		d := Dialogue{
			Session: fmt.Sprintf("d%04d", i),
			Turns:   []Turn{{Text: opening.text}},
		}
		// The dialogue's value follow-ups draw from one dimension other
		// than the opening's grouping dimension when the schema has one.
		followDim := opening.dim
		if len(dims) > 1 {
			for followDim == opening.dim {
				followDim = rng.Intn(len(dims))
			}
		}
		followValues := rel.Dim(followDim).Values()

		for n := 1 + rng.Intn(opts.Turns-1); n > 0; n-- {
			var text string
			switch pick := rng.Intn(4); {
			case pick < 2 && len(followValues) > 0:
				text = fmt.Sprintf(valueForms[rng.Intn(len(valueForms))],
					followValues[rng.Intn(len(followValues))])
			case pick == 2:
				text = directionForms[rng.Intn(len(directionForms))]
			default:
				text = rankForms[rng.Intn(len(rankForms))]
			}
			d.Turns = append(d.Turns, Turn{Text: text, FollowUp: true})
			// An occasional "repeat that" rides along, replayed from the
			// session rather than resolved against it.
			if rng.Intn(8) == 0 && len(d.Turns) < opts.Turns {
				d.Turns = append(d.Turns, Turn{Text: "repeat that"})
				n--
			}
		}
		dialogues = append(dialogues, d)
	}
	return dialogues
}
