package textindex

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/page"
)

func addrN(n int) index.Addr { return index.Addr{TID: page.TID{Page: uint32(n)}} }

func TestTokenize(t *testing.T) {
	got := Tokenize("Minicomputer Performance, for COMPUTATIONAL work-loads (v2)!")
	want := []string{"minicomputer", "performance", "for", "computational", "work", "loads", "v2"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Tokenize("")) != 0 || len(Tokenize("...")) != 0 {
		t.Error("empty text yields tokens")
	}
}

func TestMatchMask(t *testing.T) {
	cases := []struct {
		mask, word string
		want       bool
	}{
		{"*comput*", "minicomputer", true},
		{"*comput*", "computational", true},
		{"*comput*", "computer", true},
		{"*comput*", "commuter", false},
		{"comput*", "computer", true},
		{"comput*", "minicomputer", false},
		{"*puter", "computer", true},
		{"*puter", "computers", false},
		{"c?mputer", "computer", true},
		{"c?mputer", "cmputer", false},
		{"computer", "computer", true},
		{"computer", "computers", false},
		{"*", "anything", true},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := MatchMask(c.mask, c.word); got != c.want {
			t.Errorf("MatchMask(%q, %q) = %v, want %v", c.mask, c.word, got, c.want)
		}
	}
}

// The §5 example: reports with *comput* in the title.
func TestSearchMasked(t *testing.T) {
	ix := New("ti", "REPORTS", []string{"TITLE"})
	ix.Add("Concurrency and Concurrency Control", addrN(1))
	ix.Add("Minicomputer Performance for Computational Workloads", addrN(2))
	ix.Add("Computer Networks", addrN(3))
	ix.Add("Text Editing and String Search", addrN(4))

	got := ix.Search("*comput*")
	if len(got) != 2 {
		t.Fatalf("*comput* matched %d documents, want 2", len(got))
	}
	pages := map[uint32]bool{}
	for _, a := range got {
		pages[a.TID.Page] = true
	}
	if !pages[2] || !pages[3] {
		t.Errorf("matched %v, want docs 2 and 3", pages)
	}
	// The fragment filter must narrow the vocabulary before
	// verification.
	cands := ix.CandidateWords("*comput*")
	for _, w := range cands {
		t.Logf("candidate: %s", w)
	}
	if len(cands) >= ix.Words() {
		t.Errorf("fragment filter did not narrow: %d candidates of %d words", len(cands), ix.Words())
	}
	// Anchored masks.
	if got := ix.Search("comput*"); len(got) != 2 { // computational, computer
		t.Errorf("comput* matched %d docs", len(got))
	}
	if got := ix.Search("concurrency"); len(got) != 1 {
		t.Errorf("exact word matched %d docs", len(got))
	}
	if got := ix.Search("*zzz*"); len(got) != 0 {
		t.Errorf("absent fragment matched %d docs", len(got))
	}
}

func TestSearchDeduplicatesDocs(t *testing.T) {
	ix := New("ti", "T", []string{"A"})
	ix.Add("computer computing computational", addrN(1))
	if got := ix.Search("*comput*"); len(got) != 1 {
		t.Errorf("multiple matching words in one doc produced %d results", len(got))
	}
}

func TestRemove(t *testing.T) {
	ix := New("ti", "T", []string{"A"})
	ix.Add("alpha beta", addrN(1))
	ix.Add("beta gamma", addrN(2))
	ix.Remove("alpha beta", addrN(1))
	if got := ix.Search("alpha"); len(got) != 0 {
		t.Errorf("alpha still found: %v", got)
	}
	if got := ix.Search("beta"); len(got) != 1 || got[0].TID.Page != 2 {
		t.Errorf("beta = %v", got)
	}
	if ix.Words() != 2 { // beta, gamma
		t.Errorf("vocabulary = %d", ix.Words())
	}
}

func TestHierarchicalAddresses(t *testing.T) {
	a := index.Addr{TID: page.TID{Page: 9}, Path: []page.MiniTID{{Page: 0, Slot: 2}}}
	ix := New("ti", "T", []string{"DESCRIPTORS", "WORD"})
	ix.Add("Recovery", a)
	got := ix.Search("recover*")
	if len(got) != 1 || len(got[0].Path) != 1 {
		t.Fatalf("got %v", got)
	}
}

// Property: Search with a full word mask finds exactly the documents
// whose tokenization contains that word.
func TestSearchQuick(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	f := func(docs [][3]uint8) bool {
		ix := New("q", "T", []string{"A"})
		contains := map[string]map[uint32]bool{}
		for i, d := range docs {
			text := words[d[0]%5] + " " + words[d[1]%5] + " " + words[d[2]%5]
			ix.Add(text, addrN(i+1))
			for _, w := range Tokenize(text) {
				if contains[w] == nil {
					contains[w] = map[uint32]bool{}
				}
				contains[w][uint32(i+1)] = true
			}
		}
		for _, w := range words {
			got := ix.Search(w)
			if len(got) != len(contains[w]) {
				return false
			}
			for _, a := range got {
				if !contains[w][a.TID.Page] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestContainsFallback(t *testing.T) {
	if !Contains("Computer Aided Design", "*comput*") {
		t.Error("fallback Contains failed")
	}
	if Contains("Office Automation", "*comput*") {
		t.Error("fallback Contains false positive")
	}
}

// containsOracle is Contains as it was first written: tokenize, then
// match every word.
func containsOracle(text, mask string) bool {
	for _, w := range Tokenize(text) {
		if MatchMask(mask, w) {
			return true
		}
	}
	return false
}

// Property: the in-place Contains and ContainsBytes answer exactly as
// Tokenize + MatchMask, over texts and masks drawn from an alphabet with
// non-ASCII letters whose case differs, digits, separators, wildcards,
// invalid UTF-8 and the empty string — and allocate nothing.
func TestContainsMatchesTokenize(t *testing.T) {
	alphabet := []string{"a", "B", "c", "É", "é", "ß", "Σ", "σ", "ς", "İ", "1", "9", "٣", " ", "-", ".", "\xff", "*", "?", ""}
	rng := rand.New(rand.NewSource(22))
	draw := func(n int) string {
		var b strings.Builder
		for i := rng.Intn(n + 1); i > 0; i-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 20000; i++ {
		text, mask := draw(12), draw(5)
		want := containsOracle(text, mask)
		if got := Contains(text, mask); got != want {
			t.Fatalf("Contains(%q, %q) = %v, want %v", text, mask, got, want)
		}
		if got := ContainsBytes([]byte(text), mask); got != want {
			t.Fatalf("ContainsBytes(%q, %q) = %v, want %v", text, mask, got, want)
		}
	}
	text, bytes := "Très Computer Aided Design 2000", []byte("Très Computer Aided Design 2000")
	if n := testing.AllocsPerRun(100, func() {
		Contains(text, "*DESIGN*")
		ContainsBytes(bytes, "*é?")
	}); n != 0 {
		t.Errorf("Contains allocates %.0f times", n)
	}
}

func TestShortWordsAndUnselectiveMasks(t *testing.T) {
	ix := New("ti", "T", []string{"A"})
	ix.Add("a ab abc", addrN(1))
	ix.Add("xyz", addrN(2))
	if got := ix.Search("a"); len(got) != 1 {
		t.Errorf("single-letter word = %v", got)
	}
	if got := ix.Search("*a*"); len(got) != 1 {
		t.Errorf("unselective mask = %v", got)
	}
	if got := ix.Search("??"); len(got) != 1 { // "ab"
		t.Errorf("?? mask = %v", got)
	}
}
