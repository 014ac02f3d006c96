// Package textindex implements the word-fragment text index of the
// AIM-II prototype (§5, based on Schek's reference-string indexing
// /Sch78/ and the graph-structured word-fragment index /KW81/). It
// supports masked search operations like
//
//	SELECT ... WHERE x.TITLE CONTAINS '*comput*'
//
// A text attribute's words are decomposed into overlapping fragments
// (trigrams over the word extended with boundary markers). A masked
// pattern is answered by intersecting the fragment posting sets of
// the literal parts of the mask — yielding a small candidate word
// set — then verifying each candidate against the mask and taking the
// union of the surviving words' document postings.
package textindex

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/index"
	"repro/internal/page"
)

// boundary marks word start/end in fragments, so anchored mask parts
// (prefix/suffix) can use anchored fragments.
const boundary = '\x01'

// Index is a word-fragment text index over one string attribute of a
// table. It is safe for concurrent use: searches take a shared lock,
// Add/Remove an exclusive one. It keeps a watermark under the same rule
// as a value index (index.BTree): it holds every posting of every
// instant ≥ w.
type Index struct {
	Name  string
	Table string
	Path  []string // attribute path, as for value indexes

	mu sync.RWMutex
	// postings: word -> addresses of the (sub)objects whose attribute
	// value contains the word.
	postings map[string][]index.Addr
	// fragments: trigram -> set of words containing it.
	fragments map[string]map[string]struct{}
	w         int64 // the watermark
}

// New creates an empty text index, its watermark the largest instant.
func New(name, table string, path []string) *Index {
	return &Index{
		Name:      name,
		Table:     table,
		Path:      path,
		postings:  make(map[string][]index.Addr),
		fragments: make(map[string]map[string]struct{}),
		w:         math.MaxInt64,
	}
}

// SetWatermark sets the watermark of an index its builder has just
// filled from the state at every instant ≥ w.
func (ix *Index) SetWatermark(w int64) {
	ix.mu.Lock()
	ix.w = w
	ix.mu.Unlock()
}

// Raise raises the watermark to w, if it is lower: a writer calls it
// before each Remove with a clock reading taken after the storage change
// the removal follows.
func (ix *Index) Raise(w int64) {
	ix.mu.Lock()
	ix.w = max(ix.w, w)
	ix.mu.Unlock()
}

// Watermark returns the watermark.
func (ix *Index) Watermark() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.w
}

// Words returns the vocabulary size.
func (ix *Index) Words() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Walk visits every posting list in sorted word order; the scrubber
// uses it to compare a live index against a freshly built shadow. The
// callback must not retain or mutate addrs, and must not mutate the
// index (it runs under the shared lock).
func (ix *Index) Walk(fn func(word string, addrs []index.Addr)) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	words := make([]string, 0, len(ix.postings))
	for w := range ix.postings {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		fn(w, ix.postings[w])
	}
}

// Tokenize splits a text into lowercase words (letter/digit runs).
func Tokenize(text string) []string {
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return words
}

// fragmentsOf returns the trigrams of the word extended with boundary
// markers: "pc" -> ␂pc, pc␃ (as trigrams over \x01pc\x01).
func fragmentsOf(word string) []string {
	ext := string(boundary) + word + string(boundary)
	runes := []rune(ext)
	if len(runes) < 3 {
		return []string{ext}
	}
	frags := make([]string, 0, len(runes)-2)
	for i := 0; i+3 <= len(runes); i++ {
		frags = append(frags, string(runes[i:i+3]))
	}
	return frags
}

// Add indexes the text under the given address.
func (ix *Index) Add(text string, addr index.Addr) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	seen := map[string]bool{}
	for _, w := range Tokenize(text) {
		if seen[w] {
			continue
		}
		seen[w] = true
		if _, known := ix.postings[w]; !known {
			for _, f := range fragmentsOf(w) {
				set := ix.fragments[f]
				if set == nil {
					set = make(map[string]struct{})
					ix.fragments[f] = set
				}
				set[w] = struct{}{}
			}
		}
		ix.postings[w] = append(ix.postings[w], addr)
	}
}

// Remove withdraws the text's contribution under the address.
func (ix *Index) Remove(text string, addr index.Addr) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	seen := map[string]bool{}
	for _, w := range Tokenize(text) {
		if seen[w] {
			continue
		}
		seen[w] = true
		post := ix.postings[w]
		for i, a := range post {
			if a.Equal(addr) {
				post = append(post[:i], post[i+1:]...)
				break
			}
		}
		if len(post) == 0 {
			delete(ix.postings, w)
			for _, f := range fragmentsOf(w) {
				if set := ix.fragments[f]; set != nil {
					delete(set, w)
					if len(set) == 0 {
						delete(ix.fragments, f)
					}
				}
			}
		} else {
			ix.postings[w] = post
		}
	}
}

// MatchMask reports whether the word matches the mask, where '*'
// matches any (possibly empty) run and '?' any single character.
// Masks are matched case-insensitively against lowercase words.
func MatchMask(mask, word string) bool {
	return matchRunes([]rune(strings.ToLower(mask)), []rune(word))
}

func matchRunes(mask, word []rune) bool {
	if len(mask) == 0 {
		return len(word) == 0
	}
	switch mask[0] {
	case '*':
		for i := 0; i <= len(word); i++ {
			if matchRunes(mask[1:], word[i:]) {
				return true
			}
		}
		return false
	case '?':
		return len(word) > 0 && matchRunes(mask[1:], word[1:])
	default:
		return len(word) > 0 && word[0] == mask[0] && matchRunes(mask[1:], word[1:])
	}
}

// CandidateWords returns the vocabulary words that survive fragment
// filtering for the mask (before verification). Exposed so the
// experiments can report the filter's selectivity.
func (ix *Index) CandidateWords(mask string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.candidateWordsLocked(mask)
}

func (ix *Index) candidateWordsLocked(mask string) []string {
	mask = strings.ToLower(mask)
	// Split the mask at wildcards into literal runs; anchor the first
	// and last runs when the mask does not start/end with '*'.
	type run struct {
		text           string
		atStart, atEnd bool
	}
	var runs []run
	var cur strings.Builder
	start := true
	flush := func(end bool) {
		if cur.Len() > 0 {
			runs = append(runs, run{text: cur.String(), atStart: start, atEnd: end})
			cur.Reset()
		}
		start = false
	}
	for _, r := range mask {
		if r == '*' || r == '?' {
			flush(false)
			continue
		}
		cur.WriteRune(r)
	}
	flush(!strings.HasSuffix(mask, "*") && !strings.HasSuffix(mask, "?"))

	var candidate map[string]struct{}
	intersect := func(set map[string]struct{}) {
		if candidate == nil {
			candidate = make(map[string]struct{}, len(set))
			for w := range set {
				candidate[w] = struct{}{}
			}
			return
		}
		for w := range candidate {
			if _, ok := set[w]; !ok {
				delete(candidate, w)
			}
		}
	}
	usable := false
	for _, r := range runs {
		ext := r.text
		if r.atStart {
			ext = string(boundary) + ext
		}
		if r.atEnd {
			ext = ext + string(boundary)
		}
		rs := []rune(ext)
		for i := 0; i+3 <= len(rs); i++ {
			set := ix.fragments[string(rs[i:i+3])]
			if set == nil {
				return nil // a required fragment is absent: no matches
			}
			intersect(set)
			usable = true
		}
	}
	if !usable {
		// Mask too unselective for fragments (e.g. "*a*"): fall back
		// to the full vocabulary.
		candidate = make(map[string]struct{}, len(ix.postings))
		for w := range ix.postings {
			candidate[w] = struct{}{}
		}
	}
	words := make([]string, 0, len(candidate))
	for w := range candidate {
		words = append(words, w)
	}
	sort.Strings(words)
	return words
}

// Search returns the distinct addresses whose indexed text contains a
// word matching the mask. A mask without wildcards is an exact word
// search.
func (ix *Index) Search(mask string) []index.Addr {
	out, _ := ix.SearchAt(mask, 0)
	return out
}

// SearchAt is Search as of instant at (0: the current state). Before the
// watermark it fails with index.ErrWatermark.
func (ix *Index) SearchAt(mask string, at int64) ([]index.Addr, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if at != 0 && ix.w > at {
		return nil, index.ErrWatermark
	}
	var out []index.Addr
	seen := map[string]bool{}
	addrKey := func(a index.Addr) string {
		k := a.TID.String()
		for _, m := range a.Path {
			k += "/" + m.String()
		}
		return k
	}
	for _, w := range ix.candidateWordsLocked(mask) {
		if !MatchMask(mask, w) {
			continue
		}
		for _, a := range ix.postings[w] {
			if k := addrKey(a); !seen[k] {
				seen[k] = true
				out = append(out, a)
			}
		}
	}
	return out, nil
}

// Contains is the evaluator's fallback when no text index exists: it
// reports whether any word of the text matches the mask. It is
// Tokenize followed by MatchMask on every word, matched in place:
// nothing is allocated.
func Contains(text, mask string) bool { return contains(text, mask) }

// ContainsBytes is Contains on text held as bytes — a string atom
// viewed in place on its page.
func ContainsBytes(text []byte, mask string) bool { return contains(text, mask) }

func contains[T string | []byte](text T, mask string) bool {
	start := -1 // byte offset of the word being scanned
	for i := 0; i <= len(text); {
		r, n := rune(0), 1
		if i < len(text) {
			r, n = decodeRune(text, i)
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			if matchWord(mask, text[start:i]) {
				return true
			}
			start = -1
		}
		i += n
	}
	return false
}

// decodeRune decodes the rune at byte offset i of s, as ranging over a
// string does (an invalid byte is utf8.RuneError of width one).
func decodeRune[T string | []byte](s T, i int) (rune, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	var buf [utf8.UTFMax]byte
	return utf8.DecodeRune(buf[:copy(buf[:], s[i:])])
}

// matchWord is MatchMask(mask, w) for a word w of letters and digits not
// yet lowered: both sides are lowered rune by rune as they are read.
// '*' matches any run of runes and '?' one rune; the match backtracks to
// the last '*' only, which decides the same language as MatchMask's
// recursion.
func matchWord[T string | []byte](mask string, w T) bool {
	mi, wi := 0, 0
	star, starW := -1, 0 // position after the last '*' in mask; its match start in w
	for wi < len(w) {
		if mi < len(mask) {
			mr, mn := utf8.DecodeRuneInString(mask[mi:])
			mr = unicode.ToLower(mr)
			wr, wn := decodeRune(w, wi)
			switch {
			case mr == '*':
				mi += mn
				star, starW = mi, wi
				continue
			case mr == '?' || mr == unicode.ToLower(wr):
				mi += mn
				wi += wn
				continue
			}
		}
		if star < 0 {
			return false
		}
		_, wn := decodeRune(w, starW)
		starW += wn
		mi, wi = star, starW
	}
	for mi < len(mask) && mask[mi] == '*' {
		mi++
	}
	return mi == len(mask)
}

// DistinctRoots deduplicates search results to object roots.
func DistinctRoots(addrs []index.Addr) []page.TID { return index.DistinctRoots(addrs) }

// Diff compares two text indexes posting for posting — a live index
// against its shadow rebuilt from base data — and describes the first
// difference.
func Diff(live, shadow *Index) (string, bool) {
	a, b := live.postingList(), shadow.postingList()
	if len(a) != len(b) {
		return fmt.Sprintf("live text index has %d postings, base data implies %d", len(a), len(b)), true
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("posting mismatch: live %s, expected %s", a[i], b[i]), true
		}
	}
	return "", false
}

// postingList renders the index as sorted "word/addr" strings.
func (ix *Index) postingList() []string {
	var out []string
	ix.Walk(func(word string, addrs []index.Addr) {
		for _, a := range addrs {
			out = append(out, fmt.Sprintf("%s/%v/%v", word, a.TID, a.Path))
		}
	})
	sort.Strings(out)
	return out
}
