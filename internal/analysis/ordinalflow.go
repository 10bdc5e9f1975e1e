package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ordinalflowMarker suppresses one ordinalflow diagnostic at a site.
const ordinalflowMarker = "domain-ok"

// domainWord is the declaration directive binding an id domain to a
// table, scalar, or function.
const domainWord = "domain"

// Ordinalflow tracks which id space an integer value belongs to.  The
// sharded core juggles several that are all plain int32 at the type
// level — machine ids, shard indices, container ordinals, app refs —
// and a value from one space silently indexes a table of another.
// Domains are declared with //aladdin:domain directives on the
// defining tables and scalars:
//
//	ownerOf []int32            //aladdin:domain machine -> shard
//	residents [][]int32        //aladdin:domain machine, _ -> ord
//	Ord int                    //aladdin:domain ord
//
//	//aladdin:domain ord -> machine
//	func (s *Session) AssignedOrd(ord int32) MachineID
//
// For an indexable table the names before -> are the successive index
// domains and the name after -> is the element domain; for a function
// they are the parameter domains (`_` skips one) and the first
// result's domain; a bare name declares a scalar.  The analyzer
// propagates domains through assignments, conversions, range loops,
// and annotated calls, and flags cross-domain indexing, comparisons,
// assignments into annotated targets, arguments to annotated
// parameters, and returns from annotated functions.  Arithmetic erases
// a domain: an expression like ord+1 is no longer a trusted id.
var Ordinalflow = &Analyzer{
	Name: "ordinalflow",
	Doc: "flags id values from one //aladdin:domain id space indexing or comparing against another; " +
		"suppress deliberate cross-domain uses with //aladdin:" + ordinalflowMarker,
	Run: runOrdinalflow,
}

// domainSpec is one parsed //aladdin:domain directive.  Scalars have
// nil dims; tables and functions have one dim per index/parameter.
type domainSpec struct {
	dims []string
	elem string
}

func (s *domainSpec) scalar() bool { return len(s.dims) == 0 }

// parseDomainSpec parses directive args: "D" (scalar), or
// "D1[, D2…] -> E [reason…]".  A `_` dimension or element means
// explicitly untracked.
func parseDomainSpec(args string) *domainSpec {
	left, right, arrow := strings.Cut(args, "->")
	if !arrow {
		word, _, _ := cutWord(strings.TrimSpace(args))
		if word == "" {
			return nil
		}
		return &domainSpec{elem: word}
	}
	var dims []string
	for _, d := range strings.Split(left, ",") {
		d = strings.TrimSpace(d)
		if d == "" || strings.ContainsAny(d, " \t") {
			return nil
		}
		dims = append(dims, d)
	}
	if len(dims) == 0 {
		return nil
	}
	elem, _, _ := cutWord(strings.TrimSpace(right))
	if elem == "" {
		return nil
	}
	return &domainSpec{dims: dims, elem: elem}
}

// ordinalflowState is the per-package analysis state.
type ordinalflowState struct {
	pass  *Pass
	specs map[types.Object]*domainSpec // annotated fields, vars, locals
	funcs map[*types.Func]*domainSpec  // annotated functions
	env   map[types.Object]string      // inferred domains of locals (per function)
}

func runOrdinalflow(pass *Pass) (any, error) {
	st := &ordinalflowState{
		pass:  pass,
		specs: make(map[types.Object]*domainSpec),
		funcs: make(map[*types.Func]*domainSpec),
	}
	st.collectSpecs()
	if len(st.specs) == 0 && len(st.funcs) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st.checkFunc(fd)
		}
	}
	return nil, nil
}

// collectSpecs binds //aladdin:domain directives to their objects:
// struct fields (doc or trailing comment), any var whose defining
// identifier shares the directive's line or the line below it
// (package vars, locals, named results), and functions (doc comment).
func (st *ordinalflowState) collectSpecs() {
	// Struct fields, through possibly multi-line doc comments.
	for _, d := range fieldDirectives(st.pass) {
		if d.word != domainWord {
			continue
		}
		spec := parseDomainSpec(d.args)
		if spec == nil {
			st.pass.Reportf(d.comment.Pos(), "",
				"malformed //aladdin:%s directive: want \"D\" or \"D1[, D2] -> E\"", domainWord)
			continue
		}
		for _, name := range d.field.Names {
			if obj := st.pass.TypesInfo.Defs[name]; obj != nil {
				st.specs[obj] = spec
				st.pass.noteMarkerUse(d.comment)
			}
		}
	}
	// Line-anchored directives for vars: index comments by line.
	type lineDirective struct {
		comment *ast.Comment
		spec    *domainSpec
	}
	byLine := make(map[string]map[int]lineDirective) // file -> line -> directive
	for _, file := range st.pass.Files {
		fname := st.pass.Fset.Position(file.Pos()).Filename
		lines := make(map[int]lineDirective)
		byLine[fname] = lines
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				word, args, ok := parseDirective(c)
				if !ok || word != domainWord {
					continue
				}
				spec := parseDomainSpec(args)
				if spec == nil {
					continue // reported above for fields; fields dominate
				}
				lines[st.pass.Fset.Position(c.Pos()).Line] = lineDirective{c, spec}
			}
		}
	}
	for ident, obj := range st.pass.TypesInfo.Defs {
		v, ok := obj.(*types.Var)
		if !ok || st.specs[v] != nil {
			continue
		}
		pos := st.pass.Fset.Position(ident.Pos())
		lines := byLine[pos.Filename]
		if d, ok := lines[pos.Line]; ok {
			st.specs[v] = d.spec
			st.pass.noteMarkerUse(d.comment)
		} else if d, ok := lines[pos.Line-1]; ok {
			st.specs[v] = d.spec
			st.pass.noteMarkerUse(d.comment)
		}
	}
	// Functions.
	for _, file := range st.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			args, c, ok := funcDirective(fd, domainWord)
			if !ok {
				continue
			}
			spec := parseDomainSpec(args)
			if spec == nil {
				st.pass.Reportf(c.Pos(), "",
					"malformed //aladdin:%s directive: want \"D\" or \"D1[, D2] -> E\"", domainWord)
				continue
			}
			if fn, ok := st.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				st.funcs[fn] = spec
				st.pass.noteMarkerUse(c)
			}
		}
	}
}

// tracked reports whether a domain name participates in checks.
func tracked(d string) bool { return d != "" && d != "_" }

// checkFunc runs the intra-procedural domain inference and checks over
// one function body.
func (st *ordinalflowState) checkFunc(fd *ast.FuncDecl) {
	st.env = make(map[types.Object]string)
	var retSpec *domainSpec
	if fn, ok := st.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		retSpec = st.funcs[fn]
		// Annotated parameter domains seed the environment.
		if retSpec != nil && fd.Type.Params != nil {
			i := 0
			for _, f := range fd.Type.Params.List {
				for _, name := range f.Names {
					if i < len(retSpec.dims) && tracked(retSpec.dims[i]) {
						if obj := st.pass.TypesInfo.Defs[name]; obj != nil {
							st.env[obj] = retSpec.dims[i]
						}
					}
					i++
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.checkAssign(n)
		case *ast.RangeStmt:
			st.checkRange(n)
		case *ast.IndexExpr:
			st.checkIndex(n)
		case *ast.BinaryExpr:
			st.checkCompare(n)
		case *ast.CallExpr:
			st.checkCallArgs(n)
		case *ast.ReturnStmt:
			if retSpec != nil && tracked(retSpec.elem) && len(n.Results) > 0 {
				if d := st.domainOf(n.Results[0]); tracked(d) && d != retSpec.elem {
					st.pass.Reportf(n.Results[0].Pos(), ordinalflowMarker,
						"returning %s value from %s, declared to return %s ids",
						d, fd.Name.Name, retSpec.elem)
				}
			}
		}
		return true
	})
}

// checkAssign verifies writes into annotated targets and propagates
// inferred domains into unannotated locals.
func (st *ordinalflowState) checkAssign(as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return // compound ops (+=, …) erase the domain; keep prior
	}
	if len(as.Lhs) != len(as.Rhs) {
		// Multi-value: only an annotated callee's first result carries
		// a domain.
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			if d := st.domainOf(as.Rhs[0]); tracked(d) {
				st.bindTarget(as.Lhs[0], d)
			}
		}
		return
	}
	for i := range as.Lhs {
		d := st.domainOf(as.Rhs[i])
		lhs := ast.Unparen(as.Lhs[i])
		// Indexed or annotated targets get checked; bare locals learn.
		if declared := st.targetSpec(lhs); declared != nil && tracked(declared.elem) && declared.scalar() {
			if tracked(d) && d != declared.elem {
				st.pass.Reportf(as.Pos(), ordinalflowMarker,
					"assigning %s value to %s, declared to hold %s ids",
					d, exprString(st.pass, lhs), declared.elem)
			}
			continue
		}
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if spec := st.tableSpecOf(idx.X); spec != nil && len(spec.dims) == 1 && tracked(spec.elem) {
				if tracked(d) && d != spec.elem {
					st.pass.Reportf(as.Pos(), ordinalflowMarker,
						"storing %s value into %s, declared to hold %s ids",
						d, exprString(st.pass, idx.X), spec.elem)
				}
			}
			continue
		}
		st.bindTarget(lhs, d)
	}
}

// bindTarget updates the inferred environment for a plain local
// identifier target.
func (st *ordinalflowState) bindTarget(e ast.Expr, d string) {
	ident, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || ident.Name == "_" {
		return
	}
	obj := st.pass.TypesInfo.Defs[ident]
	if obj == nil {
		obj = st.pass.TypesInfo.Uses[ident]
	}
	if obj == nil || st.specs[obj] != nil {
		return
	}
	if tracked(d) {
		st.env[obj] = d
	} else {
		delete(st.env, obj) // reassignment from an untracked source
	}
}

// checkRange propagates a ranged table's index domain into the key
// variable and its element domain into the value variable.
func (st *ordinalflowState) checkRange(rs *ast.RangeStmt) {
	spec := st.tableSpecOf(rs.X)
	if spec == nil || len(spec.dims) == 0 {
		return
	}
	if rs.Key != nil && tracked(spec.dims[0]) {
		st.bindTarget(rs.Key, spec.dims[0])
	}
	if rs.Value != nil && len(spec.dims) == 1 && tracked(spec.elem) {
		st.bindTarget(rs.Value, spec.elem)
	}
}

// checkIndex verifies the index expression's domain against the
// table's declared first dimension.
func (st *ordinalflowState) checkIndex(idx *ast.IndexExpr) {
	spec := st.tableSpecOf(idx.X)
	if spec == nil || len(spec.dims) == 0 || !tracked(spec.dims[0]) {
		return
	}
	d := st.domainOf(idx.Index)
	if tracked(d) && d != spec.dims[0] {
		st.pass.Reportf(idx.Index.Pos(), ordinalflowMarker,
			"indexing %s with a %s value; its index space is %s ids",
			exprString(st.pass, idx.X), d, spec.dims[0])
	}
}

// checkCompare flags ordering/equality comparisons between values of
// different domains.
func (st *ordinalflowState) checkCompare(be *ast.BinaryExpr) {
	switch be.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return
	}
	da, db := st.domainOf(be.X), st.domainOf(be.Y)
	if tracked(da) && tracked(db) && da != db {
		st.pass.Reportf(be.OpPos, ordinalflowMarker,
			"comparing a %s value with a %s value: different id spaces", da, db)
	}
}

// checkCallArgs verifies arguments against an annotated callee's
// declared parameter domains.
func (st *ordinalflowState) checkCallArgs(call *ast.CallExpr) {
	fn := staticCallee(st.pass, call)
	if fn == nil {
		return
	}
	spec := st.funcs[fn]
	if spec == nil || call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		if i >= len(spec.dims) || !tracked(spec.dims[i]) {
			continue
		}
		if d := st.domainOf(arg); tracked(d) && d != spec.dims[i] {
			st.pass.Reportf(arg.Pos(), ordinalflowMarker,
				"passing %s value to %s, whose parameter %d takes %s ids",
				d, fn.Name(), i+1, spec.dims[i])
		}
	}
}

// targetSpec resolves the declared spec of an assignment target:
// an annotated identifier or an annotated struct field selector.
func (st *ordinalflowState) targetSpec(e ast.Expr) *domainSpec {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := st.pass.TypesInfo.Defs[e]; obj != nil {
			return st.specs[obj]
		}
		if obj := st.pass.TypesInfo.Uses[e]; obj != nil {
			return st.specs[obj]
		}
	case *ast.SelectorExpr:
		if obj := st.pass.TypesInfo.Uses[e.Sel]; obj != nil {
			return st.specs[obj]
		}
	}
	return nil
}

// tableSpecOf resolves an expression to an indexable domain spec:
// annotated tables, fields, locals, and partially-applied index
// expressions over multi-dimensional tables.
func (st *ordinalflowState) tableSpecOf(e ast.Expr) *domainSpec {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		spec := st.targetSpec(e)
		if spec != nil && len(spec.dims) > 0 {
			return spec
		}
	case *ast.IndexExpr:
		if spec := st.tableSpecOf(e.X); spec != nil && len(spec.dims) > 1 {
			return &domainSpec{dims: spec.dims[1:], elem: spec.elem}
		}
	}
	return nil
}

// domainOf infers the domain of a value expression, or "" when
// unknown.  Conversions are domain-transparent; arithmetic erases.
func (st *ordinalflowState) domainOf(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := st.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = st.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return ""
		}
		if spec := st.specs[obj]; spec != nil && spec.scalar() && tracked(spec.elem) {
			return spec.elem
		}
		return st.env[obj]
	case *ast.SelectorExpr:
		if obj := st.pass.TypesInfo.Uses[e.Sel]; obj != nil {
			if spec := st.specs[obj]; spec != nil && spec.scalar() && tracked(spec.elem) {
				return spec.elem
			}
		}
	case *ast.IndexExpr:
		if spec := st.tableSpecOf(e.X); spec != nil && len(spec.dims) == 1 && tracked(spec.elem) {
			return spec.elem
		}
	case *ast.CallExpr:
		// Conversions pass the domain through: int32(id) is still a
		// machine id.
		if tv, ok := st.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return st.domainOf(e.Args[0])
		}
		if fn := staticCallee(st.pass, e); fn != nil {
			if spec := st.funcs[fn]; spec != nil && tracked(spec.elem) {
				return spec.elem
			}
		}
	}
	return ""
}
