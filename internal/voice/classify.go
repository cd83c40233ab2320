package voice

import (
	"cicero/internal/engine"
)

// RequestType classifies incoming voice requests the way Section VIII-D
// analyzes the deployment logs (Table III).
type RequestType int

const (
	// Help requests ask what the system can do.
	Help RequestType = iota
	// Repeat requests ask for the last output again.
	Repeat
	// SQuery is a supported data-access query (retrieval with at most
	// the configured number of equality predicates).
	SQuery
	// UQuery is an unsupported data-access query: comparisons, extrema,
	// too many predicates, or references to unavailable data.
	UQuery
	// Other covers everything else (chit-chat, accidental triggers).
	Other
	// FollowUp is an elliptical dialogue continuation ("what about
	// Texas") that only makes sense merged with the previous query's
	// context. Appended after Other so Table III numbering is stable.
	FollowUp
)

// String names the request type as in Table III.
func (t RequestType) String() string {
	switch t {
	case Help:
		return "Help"
	case Repeat:
		return "Repeat"
	case SQuery:
		return "S-Query"
	case UQuery:
		return "U-Query"
	case FollowUp:
		return "Follow-up"
	default:
		return "Other"
	}
}

// RequestTypes lists all request types in Table III row order, with the
// dialogue extension appended.
func RequestTypes() []RequestType {
	return []RequestType{Help, Repeat, SQuery, UQuery, Other, FollowUp}
}

// QueryKind classifies data-access queries by intent (Figure 9b), plus
// two shapes beyond the paper's: ranked top-k lists and trends over a
// time window.
type QueryKind int

const (
	// Retrieval asks for values in a data subset (supported).
	Retrieval QueryKind = iota
	// Comparison asks for a relative comparison of two subsets.
	Comparison
	// Extremum asks for maxima/minima.
	Extremum
	// TopK asks for a ranked list of the k extremal dimension values
	// ("the three cities with the highest rent").
	TopK
	// Trend asks how a target moved across a time window ("how did
	// rent change since January 2023").
	Trend
)

// String names the query kind as in Figure 9(b).
func (k QueryKind) String() string {
	switch k {
	case Retrieval:
		return "retrieval"
	case Comparison:
		return "comparison"
	case TopK:
		return "topk"
	case Trend:
		return "trend"
	default:
		return "extremum"
	}
}

// Classification is the analysis result for one voice request.
type Classification struct {
	Type RequestType
	// Kind is meaningful only for data-access queries (S/U-Query and
	// FollowUp).
	Kind QueryKind
	// Query is the extracted query for data-access requests.
	Query engine.Query
	// Predicates is the number of extracted equality predicates.
	Predicates int

	// Extended slots for the richer query surface. Dim is the spoken
	// group-by dimension ("cities" → city) for extremum / top-k /
	// constrained shapes; K the requested list length (0 when
	// unspecified); Direction the extremal direction when HasDirection
	// reports an explicit marker ("lowest"); Window the resolved time
	// window for trend questions; Constraint the numeric entity filter
	// ("population over 500 thousand"); Values every dimension-value
	// mention in order, without Extract's one-per-dimension collapse
	// (comparisons and follow-up merging need the full list).
	Dim          string
	K            int
	Direction    engine.ExtremumKind
	HasDirection bool
	Window       *Window
	Constraint   *engine.Constraint
	Values       []engine.NamedPredicate
}

// The marker lists. NewExtractor compiles them into one phrase table
// that matches on word boundaries, so "stop" does not match the marker
// "top".
var (
	helpMarkers = []string{
		"help", "what can you", "what can i ask", "how does this work",
		"what do you know", "instructions",
	}
	repeatMarkers = []string{
		"repeat", "say that again", "come again", "once more", "pardon",
	}
	comparisonMarkers = []string{
		"compare", "comparison", "versus", " vs ", "difference between",
		"compared to", "more than", "less than", "between men and women",
	}
	extremumMarkers = []string{
		"highest", "lowest", "most", "least", "best", "worst",
		"maximum", "minimum", "max", "min", "top",
		"fewest", "smallest", "largest", "greatest",
	}
	// extremumMinWords flips the extremal direction to minima.
	extremumMinWords = []string{
		"lowest", "least", "minimum", "min", "fewest", "smallest",
	}
	trendMarkers = []string{
		"trend", "trends", "over time", "change", "changed", "changing",
		"evolve", "evolved", "evolution", "history", "trajectory",
	}
)

// markerSet has a bit per marker list, in markerLists order.
type markerSet uint8

const (
	helpMarker markerSet = 1 << iota
	repeatMarker
	comparisonMarker
	extremumMarker
	minMarker
	trendMarker
)

var markerLists = [][]string{
	helpMarkers, repeatMarkers, comparisonMarkers, extremumMarkers, extremumMinWords, trendMarkers,
}

// markersIn returns the lists with a marker occurring in ids.
func (e *Extractor) markersIn(ids []int32) markerSet {
	var set markerSet
	for i := range ids {
		for _, r := range e.markers.startingAt(ids, i) {
			if e.markers.matches(r, ids, i) {
				set |= e.markerBits[r]
			}
		}
	}
	return set
}

// Classify analyzes one voice request: first the conversational types
// (help, repeat), then data-access queries via the extractor's slot
// grammar, split into supported and unsupported per the query model of
// Section III. An utterance with a follow-up prefix that is elliptical
// — missing the target, or naming one without any other slot — is a
// FollowUp and carries only the slots it mentions; the serving layer
// merges them into the previous query's context. The text is
// normalized and split into words once; every marker and slot matches
// on those words.
func Classify(text string, ex *Extractor) Classification {
	var buf wordBuf
	w := ex.split(Normalize(text), &buf)
	switch m := ex.markersIn(w.id); {
	case m&helpMarker != 0:
		return Classification{Type: Help}
	case m&repeatMarker != 0:
		return Classification{Type: Repeat}
	}
	w, hasPrefix := ex.followUpBody(w)
	c := ex.extractSlots(w)
	if hasPrefix {
		elliptical := c.Query.Target == "" ||
			(len(c.Query.Predicates) == 0 && c.Constraint == nil && c.Window == nil &&
				c.Kind == Retrieval && c.Dim == "")
		if elliptical {
			c.Type = FollowUp
			return c
		}
		// A complete query after the prefix ("what about delays in
		// Winter") classifies as a standalone request.
	}
	if c.Query.Target == "" && c.Constraint != nil {
		// "which cities have population over 500 thousand": the
		// constraint target doubles as the reported aggregate.
		c.Query.Target = c.Constraint.Target
	}
	if c.Query.Target == "" {
		// Comparison or extremum requests about unrecognized data are
		// unsupported queries; everything else is Other.
		if c.Kind != Retrieval {
			return Classification{Type: UQuery, Kind: c.Kind, Dim: c.Dim, K: c.K,
				Direction: c.Direction, HasDirection: c.HasDirection, Window: c.Window}
		}
		return Classification{Type: Other}
	}
	if c.Kind != Retrieval || c.Constraint != nil ||
		len(c.Query.Predicates) > ex.MaxQueryLen() {
		c.Type = UQuery
		return c
	}
	c.Type = SQuery
	return c
}
