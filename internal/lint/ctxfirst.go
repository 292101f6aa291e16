package lint

import (
	"go/ast"
	"strings"
)

// CtxFirst enforces the context-first API contract: every exported
// Solve*/Sweep*/Batch*/Evaluate* entry point must take a context.Context as
// its first parameter so solves are cancellable with anytime semantics. There
// is no suppression: pre-context wrappers are not allowed anywhere.
const ctxFirstName = "ctxfirst"

var CtxFirst = &Analyzer{
	Name: ctxFirstName,
	Doc:  "exported Solve*/Sweep*/Batch*/Evaluate* entry points must take context.Context first",
	Run:  runCtxFirst,
}

func runCtxFirst(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		if p.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isEntryPointName(fd.Name.Name) || firstParamIsContext(p, fd) {
				continue
			}
			out = append(out, p.Diag(ctxFirstName, fd.Name.Pos(),
				"exported entry point %s must take a context.Context as its first parameter",
				fd.Name.Name))
		}
	}
	return out
}

// isEntryPointName reports whether name is an exported solver entry point.
func isEntryPointName(name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	return strings.HasPrefix(name, "Solve") ||
		strings.HasPrefix(name, "Sweep") ||
		strings.HasPrefix(name, "Batch") ||
		strings.HasPrefix(name, "Evaluate")
}

// firstParamIsContext reports whether the declaration's first parameter is a
// context.Context.
func firstParamIsContext(p *Package, fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	first := params.List[0]
	t := p.Info.TypeOf(first.Type)
	return t != nil && t.String() == "context.Context"
}
