package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LifecycleRule is the pool-lifecycle dataflow pass. The event kernel is
// allocation-free because every hot-path object is threaded through a
// manually managed pool — the event arena's int32 free list, the network's
// in-flight message records, the directory's delayed-request records and
// the AMU's fine-put and uncached-access records — which reintroduces exactly the use-after-release / double-release /
// leak bug class Go's garbage collector normally makes impossible. This
// rule carries that contract statically.
//
// Within each function of the lifecycle packages (the simulation packages
// plus internal/proc) it tracks pooled values from their acquire sites
// through branches, loops, field stores and ownership-transfer points, over
// a three-point lattice per value: unacquired → live → released (with a
// parallel "transferred" terminal for ownership handoffs). It reports:
//
//   - use-after-release: any read of a value after it returned to its pool;
//   - double-release: releasing the same value twice on some path;
//   - release of a value whose ownership was already transferred (the
//     historical "buffer released while a scheduled call still holds it"
//     double-free);
//   - acquire-without-release: a path out of the function (including early
//     returns, breaks and continues) on which a live pooled value is
//     neither released nor transferred — the leak that silently drains a
//     pool;
//   - a live pooled value overwritten by reassignment (the only reference
//     is lost), and an acquire whose result is discarded outright.
//
// Acquire sites are calls to the pool accessors (the acquire* naming
// convention) and direct free-list pops (indexing one of the known
// free-list fields). Releases are release* calls and the self-append
// recycling idiom `x.f = append(x.f, v)` on a free-list field. Ownership
// transfers — after which the value must NOT be released by this function
// — are:
//
//   - returning the value (pool accessors hand ownership to their caller);
//   - passing it to Engine.ScheduleCall (the prebound-call arg rides the
//     event arena until dispatch);
//   - storing it into a field, composite literal, slice, map or channel
//     (e.g. the event arena's order heap);
//   - handing out a func-typed field of a pooled record (p.read, p.done —
//     the prebound callbacks through which pooled records release
//     themselves);
//   - capture by a function literal.
//
// Passing a tracked value to any other call is a borrow (helpers may read
// or fill a buffer without taking it), so the value must still be released
// or transferred afterwards. The pass is intraprocedural and
// path-insensitive across merges (states union at join points), which is
// exactly what keeps it zero-false-positive on the current tree: every
// diagnostic is a path the function itself can take.
type LifecycleRule struct{}

// Name implements Rule.
func (LifecycleRule) Name() string { return "lifecycle" }

// lifecyclePackage reports whether the module-relative package path rel
// holds pooled hot-path objects the rule tracks: the simulation packages
// plus internal/proc (the CPU model).
func lifecyclePackage(rel string) bool {
	return simPackages[rel] || rel == "internal/proc"
}

// freeListFields are the struct fields holding pool free lists. Indexing
// one is an acquire; self-appending (`x.f = append(x.f, v)`) is a release.
var freeListFields = map[string]bool{
	"free":    true, // sim.Engine event arena slots
	"msgFree": true, // network.Network in-flight message records
	"reqFree": true, // directory.Controller records of perturber-delayed requests
	"putFree": true, // core.AMU finePut records
	"ucFree":  true, // core.AMU uncached-access records
}

// acquireFuncName reports whether a method name is a pool acquire accessor.
func acquireFuncName(name string) bool { return strings.HasPrefix(name, "acquire") }

// releaseFuncName reports whether a method name is a pool release accessor.
func releaseFuncName(name string) bool { return strings.HasPrefix(name, "release") }

// lcState is the per-value lattice, tracked as a bit set so path merges
// union possibilities: a diagnostic fires when a bad state is reachable.
type lcState uint8

const (
	lcLive        lcState = 1 << iota // acquired, owned by this function
	lcReleased                        // returned to its pool
	lcTransferred                     // ownership handed off (return, store, ScheduleCall, ...)
	lcUnknown                         // not acquired on some merged-in path
)

// lcInfo is what the analysis knows about one tracked local variable.
type lcInfo struct {
	state   lcState
	kind    string // acquire site label: method or free-list field name
	acqLine int    // acquire site line, for messages
}

// lcEnv maps tracked local variables to their lattice state.
type lcEnv map[*types.Var]lcInfo

func copyEnv(e lcEnv) lcEnv {
	out := make(lcEnv, len(e))
	for v, info := range e { //lint:order-independent (map copy)
		out[v] = info
	}
	return out
}

// mergeEnv unions src into dst. A variable present on only one side gains
// the unknown bit: it was not acquired on the other path.
func mergeEnv(dst, src lcEnv) {
	for v, si := range src { //lint:order-independent (commutative union)
		if di, ok := dst[v]; ok {
			di.state |= si.state
			dst[v] = di
		} else {
			si.state |= lcUnknown
			dst[v] = si
		}
	}
	for v, di := range dst { //lint:order-independent (commutative union)
		if _, ok := src[v]; !ok {
			di.state |= lcUnknown
			dst[v] = di
		}
	}
}

func envsEqual(a, b lcEnv) bool {
	if len(a) != len(b) {
		return false
	}
	for v, ai := range a { //lint:order-independent (pure comparison)
		if bi, ok := b[v]; !ok || ai.state != bi.state {
			return false
		}
	}
	return true
}

// setEnv replaces dst's contents with src's.
func setEnv(dst, src lcEnv) {
	for v := range dst { //lint:order-independent (map clear)
		delete(dst, v)
	}
	for v, info := range src { //lint:order-independent (map copy)
		dst[v] = info
	}
}

// Check implements Rule.
func (LifecycleRule) Check(mod *Module, pkg *Package) []Diagnostic {
	if !lifecyclePackage(mod.RelPath(pkg)) {
		return nil
	}
	a := &lifecycleAnalyzer{mod: mod, pkg: pkg, emitted: make(map[string]bool)}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.analyzeFunc(fd.Body)
		}
	}
	return a.diags
}

// lcFrame is one enclosing loop, switch or select: the collection point for
// the environments of break/continue statements targeting it.
type lcFrame struct {
	label  string
	isLoop bool
	breaks []lcExit
	conts  []lcExit
}

// lcExit is one early exit: the environment it carried and where it
// happened (leaks of block-scoped values are reported at the exit).
type lcExit struct {
	env lcEnv
	pos token.Pos
}

// lifecycleAnalyzer runs the abstract interpretation for one package.
type lifecycleAnalyzer struct {
	mod     *Module
	pkg     *Package
	diags   []Diagnostic
	emitted map[string]bool
	quiet   int // >0 while iterating loops to fixpoint: suppress diagnostics
	frames  []*lcFrame
	queue   []*ast.BlockStmt // function-literal bodies, analyzed independently
}

func (a *lifecycleAnalyzer) diag(pos token.Pos, format string, args ...any) {
	if a.quiet > 0 {
		return
	}
	p := a.mod.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	key := p.String() + "\x00" + msg
	if a.emitted[key] {
		return
	}
	a.emitted[key] = true
	a.diags = append(a.diags, Diagnostic{Pos: p, Rule: "lifecycle", Msg: msg})
}

// analyzeFunc analyzes one function body plus every function literal found
// inside it (each literal with a fresh environment: the pass is
// intraprocedural, and captured pooled values were transferred at the
// literal's creation site).
func (a *lifecycleAnalyzer) analyzeFunc(body *ast.BlockStmt) {
	a.queue = a.queue[:0]
	a.runBody(body)
	for i := 0; i < len(a.queue); i++ {
		a.runBody(a.queue[i])
	}
	a.queue = a.queue[:0]
}

func (a *lifecycleAnalyzer) runBody(body *ast.BlockStmt) {
	env := make(lcEnv)
	a.execBlock(env, body)
}

// describe names a tracked value for messages.
func describe(v *types.Var, info lcInfo) string {
	return fmt.Sprintf("pooled value %q (%s, line %d)", v.Name(), info.kind, info.acqLine)
}

// ---- state transitions ----

func (a *lifecycleAnalyzer) useVar(env lcEnv, id *ast.Ident) {
	obj := a.pkg.Info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	info, tracked := env[v]
	if !tracked {
		return
	}
	if info.state&lcReleased != 0 {
		a.diag(id.Pos(), "use of released %s: it may already be recycled into a later acquire", describe(v, info))
	}
}

func (a *lifecycleAnalyzer) releaseOp(env lcEnv, v *types.Var, pos token.Pos, via string) {
	info := env[v]
	switch {
	case info.state&lcReleased != 0:
		a.diag(pos, "double release of %s via %s", describe(v, info), via)
	case info.state&lcTransferred != 0:
		a.diag(pos, "release of %s whose ownership was already transferred: the new owner will release it again (%s)", describe(v, info), via)
	}
	info.state = lcReleased
	env[v] = info
}

func (a *lifecycleAnalyzer) transferOp(env lcEnv, v *types.Var, pos token.Pos) {
	info := env[v]
	if info.state&lcReleased != 0 {
		a.diag(pos, "use of released %s: it may already be recycled into a later acquire", describe(v, info))
	}
	info.state = lcTransferred
	env[v] = info
}

func (a *lifecycleAnalyzer) overwriteCheck(env lcEnv, v *types.Var, pos token.Pos) {
	if info, ok := env[v]; ok && info.state&lcLive != 0 {
		a.diag(pos, "%s overwritten while still live: the only reference leaks", describe(v, info))
	}
	delete(env, v)
}

func (a *lifecycleAnalyzer) leakCheck(env lcEnv, v *types.Var, pos token.Pos) {
	if info, ok := env[v]; ok && info.state&lcLive != 0 {
		a.diag(pos, "%s may leak: not released or transferred on this path out of the function", describe(v, info))
	}
}

// leakCheckAll runs the leak check over every tracked variable (return
// paths see the whole environment).
func (a *lifecycleAnalyzer) leakCheckAll(env lcEnv, pos token.Pos) {
	for v := range env { //lint:order-independent (diagnostics sorted by Run)
		a.leakCheck(env, v, pos)
	}
}

// pruneScope drops variables declared inside the given scope node from env:
// they go out of scope at pos, so any still-live one leaks there. Pruning
// keys on each variable's declaration position, so a value acquired inside
// a branch into a variable declared outside it survives the branch.
func (a *lifecycleAnalyzer) pruneScope(env lcEnv, scope ast.Node, pos token.Pos) {
	for v := range env { //lint:order-independent (diagnostics sorted by Run)
		if v.Pos() >= scope.Pos() && v.Pos() <= scope.End() {
			a.leakCheck(env, v, pos)
			delete(env, v)
		}
	}
}

// ---- expression helpers ----

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// identVar resolves an identifier (in use or definition position) to its
// *types.Var, or nil.
func (a *lifecycleAnalyzer) identVar(e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := a.pkg.Info.Defs[id]
	if obj == nil {
		obj = a.pkg.Info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// trackedIdent returns the tracked variable an expression names, or nil.
func (a *lifecycleAnalyzer) trackedIdent(env lcEnv, e ast.Expr) *types.Var {
	v := a.identVar(e)
	if v == nil {
		return nil
	}
	if _, ok := env[v]; !ok {
		return nil
	}
	return v
}

// lifecycleMember reports whether obj is declared in one of this module's
// lifecycle packages.
func (a *lifecycleAnalyzer) lifecycleMember(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	if p != a.mod.Path && !strings.HasPrefix(p, a.mod.Path+"/") {
		return false
	}
	return lifecyclePackage(strings.TrimPrefix(strings.TrimPrefix(p, a.mod.Path), "/"))
}

// acquireExpr recognizes an acquire site used as an assignment source: a
// call to a pool accessor, or a free-list pop. It returns the site label.
func (a *lifecycleAnalyzer) acquireExpr(e ast.Expr) (string, bool) {
	switch e := unparen(e).(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		obj := a.pkg.Info.Uses[sel.Sel]
		if obj == nil || !acquireFuncName(obj.Name()) || !a.lifecycleMember(obj) {
			return "", false
		}
		return obj.Name(), true
	case *ast.IndexExpr:
		sel, ok := unparen(e.X).(*ast.SelectorExpr)
		if !ok || !freeListFields[sel.Sel.Name] {
			return "", false
		}
		return sel.Sel.Name, true
	}
	return "", false
}

// evalAcquireOperands walks the non-result parts of an acquire expression
// (receiver, arguments, indices) for ordinary uses.
func (a *lifecycleAnalyzer) evalAcquireOperands(env lcEnv, e ast.Expr) {
	switch e := unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			a.evalExpr(env, sel.X)
		}
		for _, arg := range e.Args {
			a.evalExpr(env, arg)
		}
	case *ast.IndexExpr:
		if sel, ok := unparen(e.X).(*ast.SelectorExpr); ok {
			a.evalExpr(env, sel.X)
		}
		a.evalExpr(env, e.Index)
	}
}

// funcFieldOf reports the tracked variable v when arg is a selector v.f
// whose type is a function: handing out a pooled record's prebound callback
// transfers the record (it releases itself through that callback).
func (a *lifecycleAnalyzer) funcFieldOf(env lcEnv, arg ast.Expr) *types.Var {
	sel, ok := unparen(arg).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v := a.trackedIdent(env, sel.X)
	if v == nil {
		return nil
	}
	tv, ok := a.pkg.Info.Types[sel]
	if !ok || tv.Type == nil {
		return nil
	}
	if _, isFunc := tv.Type.Underlying().(*types.Signature); !isFunc {
		return nil
	}
	return v
}

// ---- expression evaluation ----

func (a *lifecycleAnalyzer) evalExpr(env lcEnv, e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.Ident:
		a.useVar(env, e)
	case *ast.ParenExpr:
		a.evalExpr(env, e.X)
	case *ast.SelectorExpr:
		a.evalExpr(env, e.X)
	case *ast.CallExpr:
		a.evalCall(env, e)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if v := a.trackedIdent(env, val); v != nil {
				a.transferOp(env, v, val.Pos())
			} else {
				a.evalExpr(env, val)
			}
		}
	case *ast.FuncLit:
		a.captureTransfer(env, e)
		a.queue = append(a.queue, e.Body)
	case *ast.UnaryExpr:
		a.evalExpr(env, e.X)
	case *ast.BinaryExpr:
		a.evalExpr(env, e.X)
		a.evalExpr(env, e.Y)
	case *ast.IndexExpr:
		a.evalExpr(env, e.X)
		a.evalExpr(env, e.Index)
	case *ast.IndexListExpr:
		a.evalExpr(env, e.X)
		for _, idx := range e.Indices {
			a.evalExpr(env, idx)
		}
	case *ast.SliceExpr:
		a.evalExpr(env, e.X)
		a.evalExpr(env, e.Low)
		a.evalExpr(env, e.High)
		a.evalExpr(env, e.Max)
	case *ast.StarExpr:
		a.evalExpr(env, e.X)
	case *ast.TypeAssertExpr:
		a.evalExpr(env, e.X)
	case *ast.KeyValueExpr:
		a.evalExpr(env, e.Value)
	}
}

// captureTransfer transfers every tracked variable the function literal
// captures: ownership moves into the closure, which outlives this frame.
func (a *lifecycleAnalyzer) captureTransfer(env lcEnv, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := a.pkg.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		if _, tracked := env[v]; tracked {
			a.transferOp(env, v, id.Pos())
		}
		return true
	})
}

func (a *lifecycleAnalyzer) evalCall(env lcEnv, call *ast.CallExpr) {
	// Builtins: append into a foreign slice stores (transfers) its
	// arguments; everything else (len, cap, copy, delete, ...) borrows.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := a.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" && len(call.Args) > 0 {
				a.evalExpr(env, call.Args[0])
				for _, arg := range call.Args[1:] {
					if v := a.trackedIdent(env, arg); v != nil {
						a.transferOp(env, v, arg.Pos())
					} else {
						a.evalExpr(env, arg)
					}
				}
				return
			}
			for _, arg := range call.Args {
				a.evalExpr(env, arg)
			}
			return
		}
	}

	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		obj := a.pkg.Info.Uses[sel.Sel]
		a.evalExpr(env, sel.X)
		if obj != nil && a.lifecycleMember(obj) {
			name := obj.Name()
			switch {
			case releaseFuncName(name):
				for _, arg := range call.Args {
					if v := a.trackedIdent(env, arg); v != nil {
						a.releaseOp(env, v, arg.Pos(), name)
					} else {
						a.evalExpr(env, arg)
					}
				}
				return
			case acquireFuncName(name):
				// Assignment contexts intercept acquires; reaching here
				// means the result is discarded on the spot.
				a.diag(call.Pos(), "result of %s discarded: the pooled value can never be released", name)
				for _, arg := range call.Args {
					a.evalExpr(env, arg)
				}
				return
			case name == "ScheduleCall", name == "ScheduleCallNode":
				// The prebound-call argument rides the event arena until
				// dispatch: ownership transfers to the scheduled call.
				for _, arg := range call.Args {
					a.argTransfer(env, arg)
				}
				return
			}
		}
	} else {
		a.evalExpr(env, call.Fun)
	}

	for _, arg := range call.Args {
		if v := a.funcFieldOf(env, arg); v != nil {
			a.transferOp(env, v, arg.Pos())
			continue
		}
		// Plain pass of a tracked value is a borrow: the callee may read
		// or fill it, but ownership stays here.
		a.evalExpr(env, arg)
	}
}

// argTransfer transfers the tracked value an argument names or is rooted
// in; other expressions evaluate normally.
func (a *lifecycleAnalyzer) argTransfer(env lcEnv, arg ast.Expr) {
	if v := a.trackedIdent(env, arg); v != nil {
		a.transferOp(env, v, arg.Pos())
		return
	}
	if sel, ok := unparen(arg).(*ast.SelectorExpr); ok {
		if v := a.trackedIdent(env, sel.X); v != nil {
			a.transferOp(env, v, arg.Pos())
			return
		}
	}
	a.evalExpr(env, arg)
}

// ---- statement execution ----

// execBlock runs a block; variables first tracked inside it are checked for
// leaks when it ends. Returns false when no path falls through.
func (a *lifecycleAnalyzer) execBlock(env lcEnv, b *ast.BlockStmt) bool {
	if !a.execStmts(env, b.List) {
		return false
	}
	a.pruneScope(env, b, b.Rbrace)
	return true
}

func (a *lifecycleAnalyzer) execStmts(env lcEnv, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !a.execStmt(env, s) {
			return false
		}
	}
	return true
}

// execStmt executes one statement, mutating env. It returns false when
// control cannot fall through to the next statement (return, panic, break,
// continue, or a loop that never exits).
func (a *lifecycleAnalyzer) execStmt(env lcEnv, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return a.execBlock(env, s)
	case *ast.IfStmt:
		return a.execIf(env, s)
	case *ast.ForStmt:
		return a.execFor(env, s, "")
	case *ast.RangeStmt:
		return a.execRange(env, s, "")
	case *ast.SwitchStmt:
		return a.execSwitch(env, s, s.Init, s.Tag, nil, s.Body, "")
	case *ast.TypeSwitchStmt:
		return a.execSwitch(env, s, s.Init, nil, s.Assign, s.Body, "")
	case *ast.SelectStmt:
		return a.execSelect(env, s, "")
	case *ast.LabeledStmt:
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			return a.execFor(env, inner, s.Label.Name)
		case *ast.RangeStmt:
			return a.execRange(env, inner, s.Label.Name)
		case *ast.SwitchStmt:
			return a.execSwitch(env, inner, inner.Init, inner.Tag, nil, inner.Body, s.Label.Name)
		case *ast.TypeSwitchStmt:
			return a.execSwitch(env, inner, inner.Init, nil, inner.Assign, inner.Body, s.Label.Name)
		case *ast.SelectStmt:
			return a.execSelect(env, inner, s.Label.Name)
		default:
			return a.execStmt(env, s.Stmt)
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if v := a.trackedIdent(env, res); v != nil {
				a.transferOp(env, v, res.Pos()) // ownership to the caller
			} else {
				a.evalExpr(env, res)
			}
		}
		a.leakCheckAll(env, s.Pos())
		return false
	case *ast.BranchStmt:
		return a.execBranch(env, s)
	case *ast.AssignStmt:
		a.execAssign(env, s)
		return true
	case *ast.DeclStmt:
		a.execDecl(env, s)
		return true
	case *ast.ExprStmt:
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := a.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					// A panic aborts the simulation outright; pool leaks on
					// the way down are irrelevant.
					for _, arg := range call.Args {
						a.evalExpr(env, arg)
					}
					return false
				}
			}
		}
		a.evalExpr(env, s.X)
		return true
	case *ast.IncDecStmt:
		a.evalExpr(env, s.X)
		return true
	case *ast.SendStmt:
		a.evalExpr(env, s.Chan)
		if v := a.trackedIdent(env, s.Value); v != nil {
			a.transferOp(env, v, s.Value.Pos())
		} else {
			a.evalExpr(env, s.Value)
		}
		return true
	case *ast.DeferStmt:
		a.evalCall(env, s.Call)
		return true
	case *ast.GoStmt:
		a.evalCall(env, s.Call)
		return true
	case *ast.EmptyStmt:
		return true
	}
	return true
}

func (a *lifecycleAnalyzer) execBranch(env lcEnv, s *ast.BranchStmt) bool {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(a.frames) - 1; i >= 0; i-- {
			f := a.frames[i]
			if label == "" || f.label == label {
				f.breaks = append(f.breaks, lcExit{env: copyEnv(env), pos: s.Pos()})
				break
			}
		}
		return false
	case token.CONTINUE:
		for i := len(a.frames) - 1; i >= 0; i-- {
			f := a.frames[i]
			if f.isLoop && (label == "" || f.label == label) {
				f.conts = append(f.conts, lcExit{env: copyEnv(env), pos: s.Pos()})
				break
			}
		}
		return false
	case token.GOTO:
		// No lifecycle package uses goto; end the path conservatively
		// without leak checks (the target is unknown).
		return false
	}
	return true // fallthrough token: handled by execSwitch
}

func (a *lifecycleAnalyzer) execIf(env lcEnv, s *ast.IfStmt) bool {
	if s.Init != nil {
		a.execStmt(env, s.Init)
	}
	a.evalExpr(env, s.Cond)
	thenEnv := copyEnv(env)
	thenFalls := a.execBlock(thenEnv, s.Body)
	elseEnv := copyEnv(env)
	elseFalls := true
	if s.Else != nil {
		elseFalls = a.execStmt(elseEnv, s.Else)
	}
	switch {
	case thenFalls && elseFalls:
		mergeEnv(thenEnv, elseEnv)
		setEnv(env, thenEnv)
	case thenFalls:
		setEnv(env, thenEnv)
	case elseFalls:
		setEnv(env, elseEnv)
	default:
		return false
	}
	// Variables introduced by the init statement go out of scope here.
	a.pruneScope(env, s, s.End())
	return true
}

func (a *lifecycleAnalyzer) pushFrame(label string, isLoop bool) *lcFrame {
	f := &lcFrame{label: label, isLoop: isLoop}
	a.frames = append(a.frames, f)
	return f
}

func (a *lifecycleAnalyzer) popFrame() {
	a.frames = a.frames[:len(a.frames)-1]
}

// runLoopBody executes one pass over a loop body: condition, body, the
// continue edges, and the post statement. It returns the back-edge
// environment and whether any path reaches the back edge.
func (a *lifecycleAnalyzer) runLoopBody(seed lcEnv, cond ast.Expr, body *ast.BlockStmt, post ast.Stmt, label string) (lcEnv, []lcExit, bool) {
	cur := copyEnv(seed)
	if cond != nil {
		a.evalExpr(cur, cond)
	}
	f := a.pushFrame(label, true)
	falls := a.execBlock(cur, body)
	a.popFrame()
	var posts []lcEnv
	if falls {
		posts = append(posts, cur)
	}
	for _, c := range f.conts {
		a.pruneScope(c.env, body, c.pos)
		posts = append(posts, c.env)
	}
	if len(posts) == 0 {
		return nil, f.breaks, false
	}
	back := posts[0]
	for _, p := range posts[1:] {
		mergeEnv(back, p)
	}
	if post != nil {
		a.execStmt(back, post)
	}
	return back, f.breaks, true
}

// loopExit merges the loop's normal-exit environment (nil when the loop
// has no condition path out) with its break exits into env. Returns false
// when the loop can never exit.
func (a *lifecycleAnalyzer) loopExit(env, normal lcEnv, breaks []lcExit, scope ast.Node) bool {
	var exits []lcEnv
	if normal != nil {
		exits = append(exits, normal)
	}
	for _, b := range breaks {
		a.pruneScope(b.env, scope, b.pos)
		exits = append(exits, b.env)
	}
	if len(exits) == 0 {
		return false
	}
	out := exits[0]
	for _, e := range exits[1:] {
		mergeEnv(out, e)
	}
	setEnv(env, out)
	return true
}

func (a *lifecycleAnalyzer) execFor(env lcEnv, s *ast.ForStmt, label string) bool {
	if s.Init != nil {
		a.execStmt(env, s.Init)
	}
	seed := copyEnv(env)
	// Iterate to fixpoint quietly: states only grow under union, so this
	// terminates; diagnostics come from one final loud pass over the
	// stable environment.
	a.quiet++
	for iter := 0; iter < 8; iter++ {
		back, _, reaches := a.runLoopBody(seed, s.Cond, s.Body, s.Post, label)
		if !reaches {
			break
		}
		next := copyEnv(seed)
		mergeEnv(next, back)
		if envsEqual(next, seed) {
			break
		}
		seed = next
	}
	a.quiet--
	_, breaks, _ := a.runLoopBody(seed, s.Cond, s.Body, s.Post, label)
	var normal lcEnv
	if s.Cond != nil {
		normal = copyEnv(seed) // the condition was false on entry or re-test
	}
	if !a.loopExit(env, normal, breaks, s) {
		return false
	}
	a.pruneScope(env, s, s.End()) // init-declared variables die here
	return true
}

func (a *lifecycleAnalyzer) execRange(env lcEnv, s *ast.RangeStmt, label string) bool {
	a.evalExpr(env, s.X)
	for _, kv := range []ast.Expr{s.Key, s.Value} {
		if kv == nil {
			continue
		}
		if v := a.identVar(kv); v != nil {
			a.overwriteCheck(env, v, kv.Pos())
		}
	}
	seed := copyEnv(env)
	a.quiet++
	for iter := 0; iter < 8; iter++ {
		back, _, reaches := a.runLoopBody(seed, nil, s.Body, nil, label)
		if !reaches {
			break
		}
		next := copyEnv(seed)
		mergeEnv(next, back)
		if envsEqual(next, seed) {
			break
		}
		seed = next
	}
	a.quiet--
	_, breaks, _ := a.runLoopBody(seed, nil, s.Body, nil, label)
	// A range loop always exits normally (possibly after zero iterations).
	return a.loopExit(env, copyEnv(seed), breaks, s)
}

// execSwitch handles both expression and type switches: each clause runs
// from the post-tag environment (plus any fallthrough feed), and the
// results merge with the no-clause path when there is no default.
func (a *lifecycleAnalyzer) execSwitch(env lcEnv, node ast.Node, init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, label string) bool {
	if init != nil {
		a.execStmt(env, init)
	}
	if tag != nil {
		a.evalExpr(env, tag)
	}
	if assign != nil {
		// Type switch guard: `x := v.(type)` or a bare expression.
		switch g := assign.(type) {
		case *ast.AssignStmt:
			for _, r := range g.Rhs {
				a.evalExpr(env, r)
			}
		case *ast.ExprStmt:
			a.evalExpr(env, g.X)
		}
	}
	f := a.pushFrame(label, false)
	var posts []lcEnv
	hasDefault := false
	var carry lcEnv
	for _, stmt := range body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cenv := copyEnv(env)
		if carry != nil {
			mergeEnv(cenv, carry)
			carry = nil
		}
		for _, x := range cc.List {
			a.evalExpr(cenv, x)
		}
		stmts := cc.Body
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				stmts = stmts[:n-1]
			}
		}
		falls := a.execStmts(cenv, stmts)
		if falls {
			a.pruneScope(cenv, cc, cc.End())
			if fallsThrough {
				carry = cenv
			} else {
				posts = append(posts, cenv)
			}
		}
	}
	a.popFrame()
	for _, b := range f.breaks {
		a.pruneScope(b.env, body, b.pos)
		posts = append(posts, b.env)
	}
	if !hasDefault {
		posts = append(posts, copyEnv(env))
	}
	if len(posts) == 0 {
		return false
	}
	out := posts[0]
	for _, p := range posts[1:] {
		mergeEnv(out, p)
	}
	setEnv(env, out)
	a.pruneScope(env, node, body.End())
	return true
}

func (a *lifecycleAnalyzer) execSelect(env lcEnv, s *ast.SelectStmt, label string) bool {
	f := a.pushFrame(label, false)
	var posts []lcEnv
	for _, stmt := range s.Body.List {
		cc, ok := stmt.(*ast.CommClause)
		if !ok {
			continue
		}
		cenv := copyEnv(env)
		if cc.Comm != nil {
			a.execStmt(cenv, cc.Comm)
		}
		if a.execStmts(cenv, cc.Body) {
			a.pruneScope(cenv, cc, cc.End())
			posts = append(posts, cenv)
		}
	}
	a.popFrame()
	for _, b := range f.breaks {
		a.pruneScope(b.env, s.Body, b.pos)
		posts = append(posts, b.env)
	}
	if len(posts) == 0 {
		return false
	}
	out := posts[0]
	for _, p := range posts[1:] {
		mergeEnv(out, p)
	}
	setEnv(env, out)
	return true
}

// ---- assignments ----

func (a *lifecycleAnalyzer) execAssign(env lcEnv, s *ast.AssignStmt) {
	// The free-list recycling idiom `x.f = append(x.f, v...)` is a release
	// of every appended value.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if sel, ok := unparen(s.Lhs[0]).(*ast.SelectorExpr); ok && freeListFields[sel.Sel.Name] {
			if call, ok := unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
					if _, isBuiltin := a.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
						if argSel, ok := unparen(call.Args[0]).(*ast.SelectorExpr); ok && argSel.Sel.Name == sel.Sel.Name {
							a.evalExpr(env, sel.X)
							for _, arg := range call.Args[1:] {
								if v := a.trackedIdent(env, arg); v != nil {
									a.releaseOp(env, v, arg.Pos(), "append to "+sel.Sel.Name)
								} else {
									a.evalExpr(env, arg)
								}
							}
							return
						}
					}
				}
			}
		}
	}

	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			a.assignPair(env, s.Lhs[i], s.Rhs[i])
		}
		return
	}
	// Tuple form: x, y := f() — results are fresh untracked values.
	for _, r := range s.Rhs {
		a.evalExpr(env, r)
	}
	for _, l := range s.Lhs {
		a.assignTarget(env, l)
	}
}

func (a *lifecycleAnalyzer) assignPair(env lcEnv, lhs, rhs ast.Expr) {
	if kind, ok := a.acquireExpr(rhs); ok {
		a.evalAcquireOperands(env, rhs)
		if v := a.identVar(lhs); v != nil {
			a.overwriteCheck(env, v, lhs.Pos())
			env[v] = lcInfo{state: lcLive, kind: kind, acqLine: a.mod.Fset.Position(rhs.Pos()).Line}
			return
		}
		// Acquired straight into a field or element: ownership is stored
		// with the containing object immediately.
		a.evalLValue(env, lhs)
		return
	}
	if v := a.trackedIdent(env, rhs); v != nil {
		if w := a.identVar(lhs); w != nil {
			// Alias move: the new name takes over the old state; the old
			// name no longer owns the value.
			a.overwriteCheck(env, w, lhs.Pos())
			info := env[v]
			if info.state&lcReleased != 0 {
				a.diag(rhs.Pos(), "use of released %s: it may already be recycled into a later acquire", describe(v, info))
			}
			env[w] = info
			old := env[v]
			old.state = lcTransferred
			env[v] = old
			return
		}
		// Stored into a field, element or dereference: ownership follows
		// the containing object (e.g. Msg.Data handed to the network).
		a.transferOp(env, v, rhs.Pos())
		a.evalLValue(env, lhs)
		return
	}
	a.evalExpr(env, rhs)
	a.assignTarget(env, lhs)
}

// assignTarget handles an assignment target that receives an untracked
// value: identifiers are (re)bound untracked, other lvalues evaluate for
// uses.
func (a *lifecycleAnalyzer) assignTarget(env lcEnv, lhs ast.Expr) {
	if id, ok := unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if v := a.identVar(id); v != nil {
			a.overwriteCheck(env, v, lhs.Pos())
		}
		return
	}
	a.evalLValue(env, lhs)
}

// evalLValue walks the non-target parts of an lvalue for uses.
func (a *lifecycleAnalyzer) evalLValue(env lcEnv, lhs ast.Expr) {
	switch lhs := unparen(lhs).(type) {
	case *ast.SelectorExpr:
		a.evalExpr(env, lhs.X)
	case *ast.IndexExpr:
		a.evalExpr(env, lhs.X)
		a.evalExpr(env, lhs.Index)
	case *ast.StarExpr:
		a.evalExpr(env, lhs.X)
	}
}

func (a *lifecycleAnalyzer) execDecl(env lcEnv, s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == len(vs.Names) {
			for i := range vs.Names {
				a.assignPair(env, vs.Names[i], vs.Values[i])
			}
			continue
		}
		for _, val := range vs.Values {
			a.evalExpr(env, val)
		}
	}
}
