// Package sql implements the generalized SQL-like query language for
// extended NF² tables described in §3 of the paper (and in /PT85,
// PA86/): SELECT-FROM-WHERE generalized so that
//
//   - the SELECT clause can define nested result structures with
//     embedded subqueries (NAME = (SELECT ...));
//   - the FROM clause binds range variables to stored tables or to
//     table-valued attributes of other variables, at any nesting
//     level (y IN x.PROJECTS);
//   - the WHERE clause supports EXISTS and ALL quantifiers over
//     subtables, list indexing (x.AUTHORS[1]), masked text search
//     (CONTAINS '*comput*'), and joins across nesting levels;
//   - FROM items accept ASOF timestamps for time-version queries.
//
// The concrete syntax follows the paper's examples with one
// deviation: quantifier bodies are delimited with a colon
// (EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT') or parentheses, and path
// components are separated with dots, since the paper's layout-based
// notation does not survive linearization.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokSymbol
)

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased, idents keep their case
	Pos  int    // byte offset in the input
	Line int    // 1-based line of the token's first byte
	Col  int    // 1-based column (byte-based) within the line
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "IN": true, "AS": true,
	"EXISTS": true, "ALL": true, "AND": true, "OR": true, "NOT": true,
	"CONTAINS": true, "ASOF": true, "TRUE": true, "FALSE": true, "NULL": true,
	"CREATE": true, "DROP": true, "TABLE": true, "LIST": true, "OF": true,
	"ORDERED": true, "VERSIONED": true, "LAYOUT": true, "INDEX": true,
	"TEXT": true, "ON": true, "USING": true, "INSERT": true, "INTO": true,
	"VALUES": true, "DELETE": true, "UPDATE": true, "SET": true,
	"INT": true, "FLOAT": true, "STRING": true, "BOOL": true, "TIME": true,
	"DISTINCT": true, "ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"COUNT": true, "SHOW": true, "TABLES": true, "DESCRIBE": true,
	"TNAME": true, "PICK": true, "EXPLAIN": true, "ALTER": true, "ADD": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "TRANSACTION": true, "WORK": true,
}

var symbols = []string{
	"<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", "{", "}", "[", "]",
	",", ".", ";", "*", "+", "-", "/", ":", "?",
}

// lineTracker converts byte offsets to 1-based line/column positions.
// Offsets must be requested in non-decreasing order (tokens are
// appended left to right), so the scan over the input is amortized
// linear.
type lineTracker struct {
	input     string
	pos       int // next unscanned byte
	line      int
	lineStart int // byte offset where the current line begins
}

// maxTokenHint bounds the tokens Lex reserves before it has read any:
// every statement of the benchmark workloads and the paper's examples
// fits, and a token is 48 bytes, so the bound is 12 KB.
const maxTokenHint = 256

func (lt *lineTracker) at(off int) (line, col int) {
	for lt.pos < off && lt.pos < len(lt.input) {
		if lt.input[lt.pos] == '\n' {
			lt.line++
			lt.lineStart = lt.pos + 1
		}
		lt.pos++
	}
	return lt.line + 1, off - lt.lineStart + 1
}

// Lex splits the input into tokens. Every token carries its byte
// offset and 1-based line/column position, so parse errors can point
// at the offending token. The token slice is sized once from the input
// length: statements average well over two bytes a token (keywords,
// names and the spaces between them), so only input denser than that
// grows it. The first reservation is capped at maxTokenHint, so that a
// long statement — most often one long string literal — reserves no
// more than a short one and grows only as its tokens arrive.
func Lex(input string) ([]Token, error) {
	toks := make([]Token, 0, min(len(input)/2+2, maxTokenHint))
	lt := &lineTracker{input: input}
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n && (isIdentRune(rune(input[i]))) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, Token{Kind: TokKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case unicode.IsDigit(c):
			start := i
			isFloat := false
			for i < n && (unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			if i+1 < n && input[i] == '.' && unicode.IsDigit(rune(input[i+1])) {
				isFloat = true
				i++
				for i < n && unicode.IsDigit(rune(input[i])) {
					i++
				}
			}
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < n && unicode.IsDigit(rune(input[j])) {
					isFloat = true
					i = j
					for i < n && unicode.IsDigit(rune(input[i])) {
						i++
					}
				}
			}
			kind := TokInt
			if isFloat {
				kind = TokFloat
			}
			toks = append(toks, Token{Kind: kind, Text: strings.ReplaceAll(input[start:i], "_", ""), Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				line, col := lt.at(start)
				return nil, fmt.Errorf("sql: unterminated string literal at line %d, column %d", line, col)
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		default:
			matched := false
			for _, s := range symbols {
				if strings.HasPrefix(input[i:], s) {
					toks = append(toks, Token{Kind: TokSymbol, Text: s, Pos: i})
					i += len(s)
					matched = true
					break
				}
			}
			if !matched {
				line, col := lt.at(i)
				return nil, fmt.Errorf("sql: unexpected character %q at line %d, column %d", c, line, col)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	for j := range toks {
		toks[j].Line, toks[j].Col = lt.at(toks[j].Pos)
	}
	return toks, nil
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
