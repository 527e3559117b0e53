package baseline_test

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/xpath"
)

const doc = `<bib>
<book><title>t</title><author>Abiteboul</author><author>Hull</author></book>
<paper><title>t</title><author>Codd</author></paper>
</bib>`

func eval(t *testing.T, query string, patterns []string) int {
	t.Helper()
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := baseline.Build([]byte(doc), patterns)
	if err != nil {
		t.Fatal(err)
	}
	res, err := baseline.Eval(tr, prog)
	if err != nil {
		t.Fatal(err)
	}
	return baseline.Count(res)
}

func TestTreeShape(t *testing.T) {
	tr, err := baseline.Build([]byte(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 8 elements + virtual document node.
	if tr.NumNodes() != 9 {
		t.Fatalf("nodes = %d, want 9", tr.NumNodes())
	}
	if tr.Tag[0] != baseline.DocTag || tr.Parent[0] != -1 {
		t.Fatal("node 0 must be the document node")
	}
	if tr.Tag[1] != "bib" || tr.Parent[1] != 0 {
		t.Fatalf("node 1 = %s parent %d", tr.Tag[1], tr.Parent[1])
	}
}

func TestAxesOnTree(t *testing.T) {
	cases := []struct {
		query string
		want  int
	}{
		{`/bib`, 1},
		{`//author`, 3},
		{`//book/author`, 2},
		{`//author/parent::*`, 2},
		{`//author/ancestor::*`, 4}, // book, paper, bib, doc
		{`//title/following-sibling::author`, 3},
		{`//author/preceding-sibling::title`, 2},
		{`//book/following::*`, 3},  // paper, title, author
		{`//paper/preceding::*`, 4}, // book and its three children
		{`//book/descendant-or-self::*`, 4},
		{`/self::*`, 1},
	}
	for _, c := range cases {
		if got := eval(t, c.query, nil); got != c.want {
			t.Errorf("%s = %d, want %d", c.query, got, c.want)
		}
	}
}

func TestStringConditions(t *testing.T) {
	prog, err := xpath.CompileQuery(`//paper[author["Codd"]]`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := baseline.Build([]byte(doc), prog.Strings)
	if err != nil {
		t.Fatal(err)
	}
	res, err := baseline.Eval(tr, prog)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Count(res) != 1 {
		t.Fatalf("count = %d, want 1", baseline.Count(res))
	}
}

func TestMalformedDoc(t *testing.T) {
	if _, err := baseline.Build([]byte(`<a><b></a>`), nil); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestPaths(t *testing.T) {
	tr, err := baseline.Build([]byte(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query string
		max   int
		want  []string
	}{
		{`/self::*`, 10, []string{""}},
		{`/bib`, 10, []string{"1"}},
		// bib's children: book 1.1, paper 1.2; the authors are the
		// book's children 2 and 3 and the paper's child 2.
		{`//author`, 10, []string{"1.1.2", "1.1.3", "1.2.2"}},
		{`//author`, 2, []string{"1.1.2", "1.1.3"}},
		{`//*`, 4, []string{"1", "1.1", "1.1.1", "1.1.2"}},
		{`//title/following-sibling::*`, 10, []string{"1.1.2", "1.1.3", "1.2.2"}},
		{`//nosuch`, 10, nil},
		{`//author`, 0, nil},
	}
	for _, c := range cases {
		prog, err := xpath.CompileQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := baseline.Eval(tr, prog)
		if err != nil {
			t.Fatal(err)
		}
		if got := baseline.Paths(tr, sel, c.max); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s (max %d): paths %q, want %q", c.query, c.max, got, c.want)
		}
	}
}
