package voice

import (
	"fmt"
	"testing"
)

// Metamorphic paraphrase suite: for every query kind, a canonical
// phrasing plus ≥10 synonym / word-order rewrites that MUST classify
// identically — same request type, same kind, same canonical query, and
// the same extended slots. The golden corpus pins exact answers for
// exact texts; this suite pins the equivalence classes between texts,
// which is where classifier regressions hide.

// slotKey flattens everything classification-relevant into a
// comparable string.
func slotKey(c Classification) string {
	k := fmt.Sprintf("type=%v kind=%v query=%s dim=%s k=%d", c.Type, c.Kind, c.Query.Key(), c.Dim, c.K)
	if c.HasDirection {
		k += fmt.Sprintf(" dir=%d", int(c.Direction))
	}
	if c.Window != nil {
		k += fmt.Sprintf(" win=%d..%d", c.Window.From, c.Window.To)
	}
	if c.Constraint != nil {
		k += fmt.Sprintf(" cons=%s|%d|%g", c.Constraint.Target, int(c.Constraint.Op), c.Constraint.Value)
	}
	return k
}

type paraphraseFamily struct {
	name      string
	canonical string
	rewrites  []string
}

func checkFamilies(t *testing.T, ex *Extractor, families []paraphraseFamily) {
	t.Helper()
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			if len(fam.rewrites) < 10 {
				t.Fatalf("family %s has only %d rewrites, need >= 10", fam.name, len(fam.rewrites))
			}
			want := slotKey(Classify(fam.canonical, ex))
			for _, rw := range fam.rewrites {
				if got := slotKey(Classify(rw, ex)); got != want {
					t.Errorf("paraphrase diverged:\n  canonical %q -> %s\n  rewrite   %q -> %s",
						fam.canonical, want, rw, got)
				}
			}
		})
	}
}

func TestMetamorphicFlights(t *testing.T) {
	_, ex := flightsExtractor(t)
	checkFamilies(t, ex, flightsFamilies)
}

var flightsFamilies = []paraphraseFamily{
	{
		name:      "retrieval",
		canonical: "cancellations in Winter",
		rewrites: []string{
			"Cancellations in winter",
			"cancellations in Winter?",
			"winter cancellations",
			"the cancellations in winter",
			"what are the cancellations in winter",
			"tell me the cancellations in winter",
			"in winter, cancellations",
			"give me winter cancellations please",
			"cancellations during winter",
			"i want the cancellations for winter",
			"WINTER CANCELLATIONS",
		},
	},
	{
		name:      "extremum",
		canonical: "which airline has the highest cancellations",
		rewrites: []string{
			"which airline has the most cancellations",
			"the airline with the highest cancellations",
			"what airline has the maximum cancellations",
			"airline with the largest cancellations",
			"which airline shows the greatest cancellations",
			"tell me the airline with the highest cancellations",
			"highest cancellations by airline",
			"the airline with the worst cancellations",
			"which airline gets the highest cancellations",
			"for which airline are cancellations highest",
			"airline with top cancellations",
		},
	},
	{
		name:      "extremum-min",
		canonical: "which airline has the lowest cancellations",
		rewrites: []string{
			"which airline has the fewest cancellations",
			"the airline with the minimum cancellations",
			"airline with the smallest cancellations",
			"which airline has the least cancellations",
			"what airline has the lowest cancellations",
			"tell me the airline with the fewest cancellations",
			"lowest cancellations by airline",
			"which airline shows the smallest cancellations",
			"the airline with min cancellations",
			"for which airline are cancellations lowest",
			"airline with the least cancellations please",
		},
	},
	{
		name:      "comparison",
		canonical: "compare delays between Winter and Summer",
		rewrites: []string{
			"compare the delays between winter and summer",
			"delays winter versus summer",
			"delays in winter vs summer",
			"what is the difference between winter and summer delays",
			"compare winter delays to summer delays",
			"compare summer and winter delays",
			"a comparison of delays between winter and summer",
			"how do winter delays compare to summer",
			"winter compared to summer delays",
			"please compare delays for winter versus summer",
			"delay comparison winter versus summer",
		},
	},
	{
		name:      "topk",
		canonical: "the top three airlines with the highest cancellations",
		rewrites: []string{
			"top 3 airlines with the highest cancellations",
			"the 3 airlines with the highest cancellations",
			"three airlines with the highest cancellations",
			"the top three airlines by highest cancellations",
			"top three airlines for the highest cancellations",
			"what are the top 3 airlines with the highest cancellations",
			"give me the top three airlines with the highest cancellations",
			"the top 3 airlines ranked by highest cancellations",
			"which are the top three airlines with the highest cancellations",
			"highest cancellations the top three airlines",
			"tell me the top 3 airlines with the highest cancellations",
		},
	},
	{
		name:      "trend",
		canonical: "how did delays change since February",
		rewrites: []string{
			"how have delays changed since february",
			"delays since february",
			"the change in delays since february",
			"what is the delay trend since february",
			"how are delays changing since february",
			"show the delays since february",
			"since february, how did delays change",
			"delay history since february",
			"the trend of delays since february",
			"delays evolution since february",
			"how did the delays evolve since february",
		},
	},
	{
		name:      "constrained",
		canonical: "airlines with cancellations over 10 percent",
		rewrites: []string{
			"airlines with cancellations above 10 percent",
			"airlines whose cancellations are over 10 percent",
			"the airlines with cancellations over 10 percent",
			"airlines having cancellations over 10 percent",
			"which airlines have cancellations over 10 percent",
			"airlines where cancellations are above 10 percent",
			"airlines with cancellations exceeding 10 percent",
			"show airlines with cancellations over 10 percent",
			"airlines with the cancellations over 10 percent",
			"list the airlines with cancellations above 10 percent",
			"airlines with cancellations greater than 10 percent",
		},
	},
	{
		name:      "help",
		canonical: "help",
		rewrites: []string{
			"help me",
			"please help",
			"what can you do",
			"what can you tell me",
			"what can i ask",
			"how does this work",
			"what do you know",
			"instructions",
			"instructions please",
			"can you help me",
			"i need help",
		},
	},
	{
		name:      "repeat",
		canonical: "repeat",
		rewrites: []string{
			"repeat that",
			"repeat please",
			"please repeat that",
			"say that again",
			"say that again please",
			"come again",
			"once more",
			"once more please",
			"pardon",
			"pardon me",
			"can you repeat that",
		},
	},
}

func TestMetamorphicHousing(t *testing.T) {
	ex := housingExtractor(t)
	checkFamilies(t, ex, housingFamilies)
}

var housingFamilies = []paraphraseFamily{
	{
		name:      "multi-constraint",
		canonical: "rent for Two bedroom apartments in cities with population over 500 thousand",
		rewrites: []string{
			"rent for two bedroom apartments in cities with population over 500k",
			"two bedroom rent in cities with population over 500 thousand",
			"rent for two bedroom homes in cities with a population over 500 thousand",
			"the rent for two bedroom apartments in cities with population above 500 thousand",
			"in cities with population over 500 thousand, rent for two bedroom apartments",
			"rent for two bedroom apartments where population is over 500 thousand in cities",
			"two bedroom apartment rent for cities with population over 500k people",
			"rent of two bedroom places in cities having population over 500 thousand",
			"show rent for two bedroom apartments in cities with population greater than 500 thousand",
			"rent for two bedroom apartments in cities whose population is over 500 thousand",
			"cities with population exceeding 500 thousand rent for two bedroom apartments",
		},
	},
	{
		name:      "topk",
		canonical: "the three cities with the highest rent",
		rewrites: []string{
			"the 3 cities with the highest rent",
			"top three cities with the highest rent",
			"top 3 cities by highest rent",
			"three cities with the highest rent",
			"what are the three cities with the highest rent",
			"give me the three cities with the highest rent",
			"the three cities with the highest rents",
			"which are the three cities with the highest rent",
			"tell me the three cities with the highest rent",
			"the three cities with the highest monthly rent",
			"highest rent the top three cities",
		},
	},
	{
		name:      "trend-window",
		canonical: "how did rent change since January 2024",
		rewrites: []string{
			"how has rent changed since january 2024",
			"rent since january 2024",
			"the rent trend since january 2024",
			"what is the trend of rent since january 2024",
			"since january 2024 how did rent change",
			"show me rents since january 2024",
			"rent history since january 2024",
			"how is rent changing since january 2024",
			"the change in rent since january 2024",
			"how did rents evolve since january 2024",
			"rental prices since january 2024",
		},
	},
	{
		name:      "followup-value",
		canonical: "what about Texas",
		rewrites: []string{
			"What about texas?",
			"how about Texas",
			"and Texas",
			"what about texas then",
			"how about texas instead",
			"and for Texas",
			"what about in Texas",
			"how about for texas",
			"and in texas",
			"what about texas please",
			"and texas now",
		},
	},
	{
		name:      "followup-kind",
		canonical: "what about the lowest",
		rewrites: []string{
			"how about the lowest",
			"and the lowest",
			"what about the minimum",
			"and the smallest",
			"how about the least",
			"what about the fewest",
			"and the min",
			"what about the lowest one",
			"how about the minimum instead",
			"and the lowest then",
			"what about the smallest",
		},
	},
}
