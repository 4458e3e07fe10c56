package dsl

import (
	"strings"
	"testing"
)

func lex(t *testing.T, src string) []token {
	t.Helper()
	toks, err := lexAll(src)
	if err != nil {
		t.Fatalf("lexAll(%q): %v", src, err)
	}
	return toks
}

func TestLexBasicTokens(t *testing.T) {
	toks := lex(t, `rule "x" { match read(fd, s, n) where a == 1 && b != "q" { emit write(fd, s, n); } }`)
	kinds := []tokKind{
		tokIdent, tokString, tokLBrace, tokIdent, tokIdent, tokLParen,
		tokIdent, tokComma, tokIdent, tokComma, tokIdent, tokRParen,
		tokIdent, tokIdent, tokEq, tokInt, tokAnd, tokIdent, tokNeq,
		tokString, tokLBrace, tokIdent, tokIdent, tokLParen, tokIdent,
		tokComma, tokIdent, tokComma, tokIdent, tokRParen, tokSemi,
		tokRBrace, tokRBrace, tokEOF,
	}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v %q, want %v", i, toks[i].kind, toks[i].text, k)
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks := lex(t, `"a\r\n\t\"\\b"`)
	if toks[0].kind != tokString {
		t.Fatalf("kind = %v", toks[0].kind)
	}
	if toks[0].text != "a\r\n\t\"\\b" {
		t.Fatalf("text = %q", toks[0].text)
	}
}

func TestLexComments(t *testing.T) {
	toks := lex(t, "// a comment\nfoo // trailing\nbar")
	if len(toks) != 3 || toks[0].text != "foo" || toks[1].text != "bar" {
		t.Fatalf("toks = %v", toks)
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks := lex(t, "a\nb\n\nc")
	if toks[0].line != 1 || toks[1].line != 2 || toks[2].line != 4 {
		t.Fatalf("lines = %d %d %d", toks[0].line, toks[1].line, toks[2].line)
	}
}

func TestLexComparisonOperators(t *testing.T) {
	toks := lex(t, "== != a==b")
	kinds := []tokKind{tokEq, tokNeq, tokIdent, tokEq, tokIdent, tokEOF}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		`"unterminated`,
		"\"bad\nline\"",
		`"bad escape \q"`,
		`@`,
	}
	for _, src := range cases {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorFormat(t *testing.T) {
	_, err := lexAll("\n\n@")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error = %q, want line number", err.Error())
	}
}
