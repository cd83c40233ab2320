package voice

import "strings"

// The classifier's compiled vocabulary. NewExtractor turns every phrase
// the slot grammar knows — target phrases, dimension values and names,
// period phrases, markers, follow-up prefixes and constraint words —
// into a sequence of word ids, once. A request is normalized once and
// split into word ids once, and every slot stage then matches phrases
// by comparing ids at the positions where a phrase's first word occurs.

// Word ids of words no phrase uses, and of words a slot has consumed.
// Neither matches any phrase word, so a consumed word is a barrier no
// phrase spans.
const (
	noWord  int32 = -1
	cutWord int32 = -2
)

// vocabulary interns the words of compiled phrases.
type vocabulary map[string]int32

func (v vocabulary) intern(word string) int32 {
	id, ok := v[word]
	if !ok {
		id = int32(len(v))
		v[word] = id
	}
	return id
}

func (v vocabulary) lookup(word string) int32 {
	if id, ok := v[word]; ok {
		return id
	}
	return noWord
}

// phraseTable holds phrases as word-id sequences in priority order (a
// phrase's index is its rank), indexed by first word.
type phraseTable struct {
	phrases [][]int32
	byFirst [][]int32 // word id → ranks of the phrases starting with it, ascending
}

// add appends a phrase of the given words at the lowest priority and
// returns its rank.
func (t *phraseTable) add(v vocabulary, words []string) int32 {
	ids := make([]int32, len(words))
	for k, w := range words {
		ids[k] = v.intern(w)
	}
	rank := int32(len(t.phrases))
	t.phrases = append(t.phrases, ids)
	for int(ids[0]) >= len(t.byFirst) {
		t.byFirst = append(t.byFirst, nil)
	}
	t.byFirst[ids[0]] = append(t.byFirst[ids[0]], rank)
	return rank
}

// addAll adds normalized phrases in order; all must be non-empty.
func (t *phraseTable) addAll(v vocabulary, phrases []string) {
	for _, p := range phrases {
		t.add(v, appendWords(nil, Normalize(p)))
	}
}

// startingAt returns the ranks of the phrases whose first word is ids[i].
func (t *phraseTable) startingAt(ids []int32, i int) []int32 {
	if i >= len(ids) || ids[i] < 0 || int(ids[i]) >= len(t.byFirst) {
		return nil
	}
	return t.byFirst[ids[i]]
}

// matches reports whether phrase rank occurs in ids at position i.
func (t *phraseTable) matches(rank int32, ids []int32, i int) bool {
	p := t.phrases[rank]
	if i+len(p) > len(ids) {
		return false
	}
	for k, w := range p {
		if ids[i+k] != w {
			return false
		}
	}
	return true
}

// at returns the best-ranked phrase occurring at position i, or -1.
// Phrases that match at one position are word-prefixes of each other,
// so under a longest-first ranking this is the longest match.
func (t *phraseTable) at(ids []int32, i int) int32 {
	for _, rank := range t.startingAt(ids, i) {
		if t.matches(rank, ids, i) {
			return rank
		}
	}
	return -1
}

// best returns the best-ranked phrase occurring anywhere in ids, or -1.
func (t *phraseTable) best(ids []int32) int32 {
	best := int32(-1)
	for i := range ids {
		if r := t.at(ids, i); r >= 0 && (best < 0 || r < best) {
			best = r
		}
	}
	return best
}

// appendWords appends the words of normalized text to dst.
func appendWords(dst []string, norm string) []string {
	for norm != "" {
		i := strings.IndexByte(norm, ' ')
		if i < 0 {
			return append(dst, norm)
		}
		dst = append(dst, norm[:i])
		norm = norm[i+1:]
	}
	return dst
}

// words is an utterance as the slot stages see it: its words and their
// ids, position by position. A stage that consumes a phrase either cuts
// it out, joining its neighbours, or marks its ids cutWord. Stages take
// and return words by value, which keeps a caller's wordBuf on its
// stack.
type words struct {
	text []string
	id   []int32
}

// wordBuf is stack room for the words of a typical utterance.
type wordBuf struct {
	text [24]string
	id   [24]int32
}

// split splits normalized text into words and looks up their ids.
func (e *Extractor) split(norm string, buf *wordBuf) words {
	w := words{text: appendWords(buf.text[:0], norm), id: buf.id[:0]}
	for _, s := range w.text {
		w.id = append(w.id, e.vocab.lookup(s))
	}
	return w
}

// cut removes positions [from, to), in place.
func (w words) cut(from, to int) words {
	w.text = append(w.text[:from], w.text[to:]...)
	w.id = append(w.id[:from], w.id[to:]...)
	return w
}

// dropMarked removes the positions marked cutWord, in place.
func (w words) dropMarked() words {
	n := 0
	for k, id := range w.id {
		if id != cutWord {
			w.text[n], w.id[n] = w.text[k], id
			n++
		}
	}
	w.text, w.id = w.text[:n], w.id[:n]
	return w
}
