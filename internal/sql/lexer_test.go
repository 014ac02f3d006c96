package sql

import (
	"strings"
	"testing"
)

// TestLexLongLiteralReservesLittle: a statement that is one long string
// literal lexes into a handful of tokens, and the token slice's capacity
// does not follow the input's length.
func TestLexLongLiteralReservesLittle(t *testing.T) {
	q := "SELECT '" + strings.Repeat("a", 1<<20) + "'"
	toks, err := Lex(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) > 4 {
		t.Errorf("tokens = %d, want at most 4", len(toks))
	}
	if cap(toks) > maxTokenHint {
		t.Errorf("token capacity = %d for a %d-byte literal, want at most %d", cap(toks), len(q), maxTokenHint)
	}
}
