// Package baseline is an independent Core XPath evaluator over the plain,
// uncompressed document tree — the O(|Q| * |T|) main-memory evaluation the
// paper compares against ("our algorithms are competitive even when applied
// to uncompressed data", Section 6).
//
// It deliberately shares no evaluation code with internal/algebra: axes are
// computed directly on a pointer-style tree with boolean node sets. That
// makes it both the performance baseline for the benchmarks and the oracle
// for differential tests of the compressed-instance engine.
package baseline

import (
	"fmt"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/saxml"
	"repro/internal/strmatch"
	"repro/internal/xpath"
)

// DocTag is the pseudo-tag of node 0, the virtual document node above the
// root element (mirroring the skeleton package's virtual document vertex).
const DocTag = "#doc"

// Tree is an uncompressed document skeleton in document (preorder) order.
// Node 0 is always the virtual document node.
type Tree struct {
	Parent   []int32   // Parent[i] = parent of node i; -1 for the root
	Children [][]int32 // Children[i] = child nodes in document order
	Tag      []string  // element tag per node
	// strMatch[p][i] reports that node i's string value contains
	// pattern p (patterns as passed to Build).
	strMatch [][]bool
	patterns map[string]int
}

// NumNodes returns |T|.
func (t *Tree) NumNodes() int { return len(t.Tag) }

// Build parses doc into a Tree, recording string-containment matches for
// the given patterns.
func Build(doc []byte, patterns []string) (*Tree, error) {
	t := &Tree{patterns: make(map[string]int, len(patterns))}
	for i, p := range patterns {
		t.patterns[p] = i
	}
	b := &builder{tree: t}
	if len(patterns) > 0 {
		b.matcher = strmatch.New(patterns)
		t.strMatch = make([][]bool, len(patterns))
	}
	// Node 0: the virtual document node.
	t.Tag = append(t.Tag, DocTag)
	t.Children = append(t.Children, nil)
	t.Parent = append(t.Parent, -1)
	b.stack = append(b.stack, 0)
	b.starts = append(b.starts, 0)
	for i := range t.strMatch {
		t.strMatch[i] = append(t.strMatch[i], false)
	}
	if err := saxml.Parse(doc, b); err != nil {
		return nil, err
	}
	for i := range t.strMatch {
		// Pad to final node count (marks were set during parsing).
		for len(t.strMatch[i]) < t.NumNodes() {
			t.strMatch[i] = append(t.strMatch[i], false)
		}
	}
	return t, nil
}

type builder struct {
	tree    *Tree
	stack   []int32
	starts  []int64 // text start offset per open element
	matcher *strmatch.Automaton
}

func (b *builder) StartElement(name string, _ []saxml.Attr) error {
	t := b.tree
	id := int32(len(t.Tag))
	t.Tag = append(t.Tag, name)
	t.Children = append(t.Children, nil)
	p := b.stack[len(b.stack)-1]
	t.Parent = append(t.Parent, p)
	t.Children[p] = append(t.Children[p], id)
	var off int64
	if b.matcher != nil {
		off = b.matcher.Offset()
	}
	b.stack = append(b.stack, id)
	b.starts = append(b.starts, off)
	for i := range t.strMatch {
		t.strMatch[i] = append(t.strMatch[i], false)
	}
	return nil
}

func (b *builder) EndElement(string) error {
	b.stack = b.stack[:len(b.stack)-1]
	b.starts = b.starts[:len(b.starts)-1]
	return nil
}

func (b *builder) Text(data []byte) error {
	if b.matcher == nil {
		return nil
	}
	b.matcher.Feed(data, func(m strmatch.Match) {
		marks := b.tree.strMatch[m.Pattern]
		for i := len(b.stack) - 1; i >= 0; i-- {
			if b.starts[i] > m.Start {
				continue
			}
			n := b.stack[i]
			if marks[n] {
				break
			}
			marks[n] = true
		}
	})
	return nil
}

// Eval runs a compiled program on the tree and returns the boolean result
// set over nodes in document order.
func Eval(t *Tree, prog *xpath.Program) ([]bool, error) {
	regs := make([][]bool, prog.NumTemp)
	for _, in := range prog.Instrs {
		var dst []bool
		switch in.Op {
		case xpath.OpLabel:
			dst = t.labelSet(in.Name)
		case xpath.OpAll:
			dst = make([]bool, t.NumNodes())
			for i := range dst {
				dst[i] = true
			}
		case xpath.OpRoot:
			dst = make([]bool, t.NumNodes())
			if len(dst) > 0 {
				dst[0] = true
			}
		case xpath.OpAxis:
			dst = t.axis(in.Axis, regs[in.A])
		case xpath.OpUnion:
			dst = combine(regs[in.A], regs[in.B], func(a, b bool) bool { return a || b })
		case xpath.OpIntersect:
			dst = combine(regs[in.A], regs[in.B], func(a, b bool) bool { return a && b })
		case xpath.OpDiff:
			dst = combine(regs[in.A], regs[in.B], func(a, b bool) bool { return a && !b })
		case xpath.OpComplement:
			dst = make([]bool, t.NumNodes())
			for i, v := range regs[in.A] {
				dst[i] = !v
			}
		case xpath.OpRootFilter:
			dst = make([]bool, t.NumNodes())
			if len(dst) > 0 && regs[in.A][0] {
				for i := range dst {
					dst[i] = true
				}
			}
		default:
			return nil, fmt.Errorf("baseline: unknown op %d", in.Op)
		}
		regs[in.Dst] = dst
	}
	return regs[prog.Result], nil
}

// Count returns the number of selected nodes in a result set.
func Count(set []bool) int {
	n := 0
	for _, v := range set {
		if v {
			n++
		}
	}
	return n
}

// Paths returns the tree addresses of up to max selected nodes, in
// document order, in the format of dag.SelectedPaths: node 0 is "", and
// every other node is its parent's address extended by its 1-based
// position among the parent's children, joined with '.'. It walks the
// nodes in preorder with one address buffer, so it builds no address it
// does not return.
func Paths(t *Tree, sel []bool, max int) []string {
	type frame struct {
		node    int32
		addrLen int
		kids    int
	}
	var (
		out   []string
		addr  []byte
		stack []frame
	)
	for i := 0; i < t.NumNodes() && len(out) < max; i++ {
		if p := t.Parent[i]; p >= 0 {
			for stack[len(stack)-1].node != p {
				stack = stack[:len(stack)-1]
			}
			top := &stack[len(stack)-1]
			top.kids++
			addr = addr[:top.addrLen]
			if len(addr) > 0 {
				addr = append(addr, '.')
			}
			addr = strconv.AppendInt(addr, int64(top.kids), 10)
		}
		stack = append(stack, frame{node: int32(i), addrLen: len(addr)})
		if sel[i] {
			out = append(out, string(addr))
		}
	}
	return out
}

// labelSet resolves a "tag:..." or "str:..." schema name to its node set.
func (t *Tree) labelSet(name string) []bool {
	dst := make([]bool, t.NumNodes())
	const tagPrefix, strPrefix = "tag:", "str:"
	switch {
	case len(name) >= 4 && name[:4] == tagPrefix:
		tag := name[4:]
		for i, tg := range t.Tag {
			if tg == tag {
				dst[i] = true
			}
		}
	case len(name) >= 4 && name[:4] == strPrefix:
		if pi, ok := t.patterns[name[4:]]; ok {
			copy(dst, t.strMatch[pi])
		}
	}
	return dst
}

func combine(a, b []bool, f func(bool, bool) bool) []bool {
	dst := make([]bool, len(a))
	for i := range a {
		dst[i] = f(a[i], b[i])
	}
	return dst
}

func (t *Tree) axis(a algebra.Axis, src []bool) []bool {
	n := t.NumNodes()
	dst := make([]bool, n)
	switch a {
	case algebra.Self:
		copy(dst, src)
	case algebra.Child:
		// Selected iff parent in src. Document order: parents precede
		// children, one forward pass suffices.
		for i := 0; i < n; i++ {
			if p := t.Parent[i]; p >= 0 && src[p] {
				dst[i] = true
			}
		}
	case algebra.Parent:
		for i := 0; i < n; i++ {
			if src[i] {
				if p := t.Parent[i]; p >= 0 {
					dst[p] = true
				}
			}
		}
	case algebra.Descendant, algebra.DescendantOrSelf:
		// Selected iff a proper ancestor is in src (or self for -or-self).
		for i := 0; i < n; i++ {
			p := t.Parent[i]
			if p >= 0 && (src[p] || dst[p]) {
				dst[i] = true
			}
		}
		if a == algebra.DescendantOrSelf {
			for i := 0; i < n; i++ {
				if src[i] {
					dst[i] = true
				}
			}
		}
	case algebra.Ancestor, algebra.AncestorOrSelf:
		// Backward pass: children precede... children FOLLOW parents in
		// preorder, so iterate in reverse to see descendants first.
		for i := n - 1; i >= 0; i-- {
			if src[i] || dst[i] {
				if p := t.Parent[i]; p >= 0 {
					dst[p] = true
				}
			}
		}
		if a == algebra.AncestorOrSelf {
			for i := 0; i < n; i++ {
				if src[i] {
					dst[i] = true
				}
			}
		}
	case algebra.FollowingSibling:
		for i := 0; i < n; i++ {
			seen := false
			for _, c := range t.Children[i] {
				if seen {
					dst[c] = true
				}
				if src[c] {
					seen = true
				}
			}
		}
	case algebra.PrecedingSibling:
		for i := 0; i < n; i++ {
			seen := false
			kids := t.Children[i]
			for j := len(kids) - 1; j >= 0; j-- {
				c := kids[j]
				if seen {
					dst[c] = true
				}
				if src[c] {
					seen = true
				}
			}
		}
	case algebra.Following:
		return t.axis(algebra.DescendantOrSelf,
			t.axis(algebra.FollowingSibling,
				t.axis(algebra.AncestorOrSelf, src)))
	case algebra.Preceding:
		return t.axis(algebra.DescendantOrSelf,
			t.axis(algebra.PrecedingSibling,
				t.axis(algebra.AncestorOrSelf, src)))
	default:
		panic("baseline: unknown axis " + a.String())
	}
	return dst
}
