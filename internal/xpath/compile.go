package xpath

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/skeleton"
)

// OpKind enumerates the instruction kinds of a compiled query program —
// exactly the operator algebra of Section 3.1: node-set leaves, the binary
// set operations, axis applications, and V|root.
type OpKind int

const (
	OpLabel      OpKind = iota // Dst := the existing relation named Name (tag or string label)
	OpAll                      // Dst := V
	OpRoot                     // Dst := {root}
	OpAxis                     // Dst := Axis(A)
	OpUnion                    // Dst := A ∪ B
	OpIntersect                // Dst := A ∩ B
	OpDiff                     // Dst := A − B
	OpComplement               // Dst := V − A
	OpRootFilter               // Dst := V|root(A)
)

// Instr is one step of a compiled program. Temporaries are dense indices;
// Dst is always a fresh temporary (single assignment).
type Instr struct {
	Op   OpKind
	Axis algebra.Axis
	A, B int    // operand temporaries (as applicable)
	Name string // OpLabel: schema name of the relation
	Dst  int
}

// String renders the instruction for plans and debugging.
func (i Instr) String() string {
	switch i.Op {
	case OpLabel:
		return fmt.Sprintf("t%d := label(%s)", i.Dst, i.Name)
	case OpAll:
		return fmt.Sprintf("t%d := V", i.Dst)
	case OpRoot:
		return fmt.Sprintf("t%d := {root}", i.Dst)
	case OpAxis:
		return fmt.Sprintf("t%d := %v(t%d)", i.Dst, i.Axis, i.A)
	case OpUnion:
		return fmt.Sprintf("t%d := t%d ∪ t%d", i.Dst, i.A, i.B)
	case OpIntersect:
		return fmt.Sprintf("t%d := t%d ∩ t%d", i.Dst, i.A, i.B)
	case OpDiff:
		return fmt.Sprintf("t%d := t%d − t%d", i.Dst, i.A, i.B)
	case OpComplement:
		return fmt.Sprintf("t%d := V − t%d", i.Dst, i.A)
	case OpRootFilter:
		return fmt.Sprintf("t%d := V|root(t%d)", i.Dst, i.A)
	}
	return "?"
}

// Commutative reports whether the operator treats its two operands
// symmetrically, so a planner may swap (or re-associate) them without
// changing the result: set intersection and union commute, difference
// does not, and the remaining kinds are not binary.
func (k OpKind) Commutative() bool { return k == OpIntersect || k == OpUnion }

// Operands returns the temporaries the instruction reads, in A-then-B
// order — the program's def-use edges, which any rewrite must preserve.
func (i Instr) Operands() []int {
	switch i.Op {
	case OpLabel, OpAll, OpRoot:
		return nil
	case OpAxis, OpComplement, OpRootFilter:
		return []int{i.A}
	default: // OpUnion, OpIntersect, OpDiff
		return []int{i.A, i.B}
	}
}

// Program is a compiled Core XPath query: a straight-line sequence of
// algebra instructions whose final temporary holds the query result.
// Tags and Strings list the node-set leaves the instance must provide —
// feed them to skeleton.Options so the parse records exactly the relations
// the query needs (the Figure 7 setup).
type Program struct {
	Instrs  []Instr
	Result  int // temporary holding the result
	NumTemp int
	Tags    []string
	Strings []string
	// Downward reports whether the program uses any axis that may
	// decompress the instance; Corollary 3.7 applies when false.
	Downward bool
	// Sig is the conservative query signature the catalog-level
	// path-synopsis index checks to skip documents that provably cannot
	// match (see Signature). Always non-nil for compiled programs.
	Sig *Signature
	// Chain, when non-nil, marks the query as exists/count-shaped: its
	// full answer is determined by one root-anchored child chain, which
	// the planner can serve from synopsis statistics alone (ChainShape).
	Chain *ChainShape
	// Carry holds, per instruction, the registers a graph rewrite during
	// that instruction must carry onto the rewritten graph (CarrySets).
	// Compile and the planner fill it; without it, rewrites carry every
	// register.
	Carry [][]int
}

// CarrySets computes the register liveness a program's rewrites need:
// for each instruction i, the registers written by an earlier
// instruction and still read after i, plus the result if it is already
// written. Any other register is either dead or written later, and every
// operator fully overwrites its destination, so a rewrite during i may
// clear it instead of carrying its bits onto the new vertices. Entries of
// instructions that cannot rewrite the graph are nil.
func CarrySets(instrs []Instr, result int) [][]int {
	lastUse := make(map[int]int, len(instrs))
	for i, in := range instrs {
		for _, r := range in.Operands() {
			lastUse[r] = i
		}
	}
	lastUse[result] = len(instrs)
	carry := make([][]int, len(instrs))
	for i, in := range instrs {
		if in.Op != OpAxis || in.Axis.Upward() {
			continue
		}
		for _, d := range instrs[:i] {
			if lastUse[d.Dst] > i {
				carry[i] = append(carry[i], d.Dst)
			}
		}
	}
	return carry
}

// String renders the program one instruction per line.
func (p *Program) String() string {
	s := ""
	for _, in := range p.Instrs {
		s += in.String() + "\n"
	}
	return s + fmt.Sprintf("result: t%d\n", p.Result)
}

// Compile lowers a parsed query to an algebra program. The main path is
// evaluated with forward axes left to right; predicate paths are reversed
// (each axis replaced by its inverse, Section 3.1) so that conditions are
// computed as node sets flowing towards the query tree root — this is why
// purely "downward" surface queries inside conditions execute with upward
// axes and never decompress.
func Compile(path *Path) (*Program, error) {
	c := &compiler{
		tags:    map[string]bool{},
		strings: map[string]bool{},
	}
	res, err := c.compilePath(path)
	if err != nil {
		return nil, err
	}
	return c.finish(path, res), nil
}

func (c *compiler) finish(path *Path, res int) *Program {
	prog := &Program{
		Instrs:   c.instrs,
		Result:   res,
		NumTemp:  c.nextTemp,
		Downward: c.downward,
		Sig:      signatureOf(path, c.context != ""),
		Chain:    chainShapeOf(path, c.context != ""),
		Carry:    CarrySets(c.instrs, res),
	}
	for t := range c.tags {
		prog.Tags = append(prog.Tags, t)
	}
	for s := range c.strings {
		prog.Strings = append(prog.Strings, s)
	}
	sort.Strings(prog.Tags)
	sort.Strings(prog.Strings)
	return prog
}

// CompileQuery parses and compiles in one call.
func CompileQuery(query string) (*Program, error) {
	path, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Compile(path)
}

// CompileWithContext compiles a query whose top-level *relative* path
// starts from a user-defined initial selection of nodes (Section 3.1's
// query context) instead of the document root: contextLabel names an
// existing relation of the target instance — typically the result
// selection of a previous query, which is how queries compose on
// (partially decompressed) result instances. Absolute paths and absolute
// conditions still anchor at the root.
func CompileWithContext(query, contextLabel string) (*Program, error) {
	path, err := Parse(query)
	if err != nil {
		return nil, err
	}
	c := &compiler{
		tags:    map[string]bool{},
		strings: map[string]bool{},
		context: contextLabel,
	}
	res, err := c.compilePath(path)
	if err != nil {
		return nil, err
	}
	return c.finish(path, res), nil
}

type compiler struct {
	instrs   []Instr
	nextTemp int
	tags     map[string]bool
	strings  map[string]bool
	downward bool
	// context, when non-empty, names the relation holding the initial
	// selection for top-level relative paths.
	context string
}

func (c *compiler) emit(i Instr) int {
	i.Dst = c.nextTemp
	c.nextTemp++
	c.instrs = append(c.instrs, i)
	return i.Dst
}

func (c *compiler) axis(a algebra.Axis, src int) int {
	if !a.Upward() {
		c.downward = true
	}
	return c.emit(Instr{Op: OpAxis, Axis: a, A: src})
}

func (c *compiler) test(name string) (int, error) {
	if name == "*" {
		return c.emit(Instr{Op: OpAll}), nil
	}
	c.tags[name] = true
	return c.emit(Instr{Op: OpLabel, Name: skeleton.TagLabel(name)}), nil
}

// compilePath compiles a top-level path with forward axes. The initial
// context is the document root, or the user-defined selection when
// compiling with CompileWithContext and the path is relative. A step
// self::*[e] on the root context realises the paper's Q1 pattern: the
// whole query reduces to condition evaluation (upward axes only).
func (c *compiler) compilePath(p *Path) (int, error) {
	var cur int
	if c.context != "" && !p.Absolute {
		cur = c.emit(Instr{Op: OpLabel, Name: c.context})
	} else {
		cur = c.emit(Instr{Op: OpRoot})
	}
	for _, st := range p.Steps {
		next := c.axis(st.Axis, cur)
		t, err := c.test(st.Test)
		if err != nil {
			return 0, err
		}
		next = c.emit(Instr{Op: OpIntersect, A: next, B: t})
		for _, pred := range st.Preds {
			pt, err := c.compileCond(pred)
			if err != nil {
				return 0, err
			}
			next = c.emit(Instr{Op: OpIntersect, A: next, B: pt})
		}
		cur = next
	}
	return cur, nil
}

// compileCond compiles a predicate expression to the node set of all
// vertices at which it holds.
func (c *compiler) compileCond(e Expr) (int, error) {
	switch e := e.(type) {
	case And:
		l, err := c.compileCond(e.L)
		if err != nil {
			return 0, err
		}
		r, err := c.compileCond(e.R)
		if err != nil {
			return 0, err
		}
		return c.emit(Instr{Op: OpIntersect, A: l, B: r}), nil
	case Or:
		l, err := c.compileCond(e.L)
		if err != nil {
			return 0, err
		}
		r, err := c.compileCond(e.R)
		if err != nil {
			return 0, err
		}
		return c.emit(Instr{Op: OpUnion, A: l, B: r}), nil
	case Not:
		t, err := c.compileCond(e.E)
		if err != nil {
			return 0, err
		}
		return c.emit(Instr{Op: OpComplement, A: t}), nil
	case Str:
		c.strings[e.Pattern] = true
		return c.emit(Instr{Op: OpLabel, Name: skeleton.StringLabel(e.Pattern)}), nil
	case *Path:
		return c.compileCondPath(e)
	}
	return 0, fmt.Errorf("xpath: unknown condition %T", e)
}

// compileCondPath compiles a path condition by reversal: process steps
// right to left, applying each step's *inverse* axis, so the computed set
// flows from the path's endpoint back to its start.
//
//	n satisfies ax1::t1[e1]/.../axk::tk[ek]
//	  iff n ∈ inv(ax1)( T(t1) ∩ P(e1) ∩ inv(ax2)( T(t2) ∩ P(e2) ∩ ... ) )
//
// For an absolute path the start must be the root, so the result is
// V|root({root} ∩ ...): all nodes if the document satisfies the path,
// none otherwise.
func (c *compiler) compileCondPath(p *Path) (int, error) {
	if len(p.Steps) == 0 {
		return 0, fmt.Errorf("xpath: empty path condition")
	}
	// matched(k) = T(tk) ∩ P(ek)
	// flow(k)    = inv(axis_k)( matched(k) ∩ flow(k+1) ), flow(last+1) absent
	flow := -1
	for i := len(p.Steps) - 1; i >= 0; i-- {
		st := p.Steps[i]
		m, err := c.test(st.Test)
		if err != nil {
			return 0, err
		}
		for _, pred := range st.Preds {
			pt, err := c.compileCond(pred)
			if err != nil {
				return 0, err
			}
			m = c.emit(Instr{Op: OpIntersect, A: m, B: pt})
		}
		if flow >= 0 {
			m = c.emit(Instr{Op: OpIntersect, A: m, B: flow})
		}
		// Pull back through this step's axis to the step's context.
		flow = c.axis(st.Axis.Inverse(), m)
	}
	if p.Absolute {
		root := c.emit(Instr{Op: OpRoot})
		at := c.emit(Instr{Op: OpIntersect, A: root, B: flow})
		return c.emit(Instr{Op: OpRootFilter, A: at}), nil
	}
	return flow, nil
}
