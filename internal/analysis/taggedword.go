package analysis

import (
	"go/ast"
	"go/types"
)

// TaggedWord enforces the §2.2 sequence-tag discipline on the pooled
// register type: a memory.TaggedRef — and any value embedding one — is
// built by the New* constructors (which hand back pointers) or as a
// zero value in place, shared by pointer, and mutated only through
// CAS/Write on the register itself. Copying such a value by
// assignment, argument passing, return, range, send, or composite
// literal forks the atomic word: the copy's tag stream diverges from
// the original's and a recycled-handle CAS can then succeed against a
// stale snapshot, which is exactly the ABA the tags exist to prevent.
//
// The home package (internal/memory) is exempt from the
// direct-overwrite rule for construction, but not from the copy rule:
// even there a register is never copied, only built in place. Bare
// atomic.Uint64 tagged words (internal/set's next and bucket words)
// fall under mixedatomic's typed-atomic rule and vet's copylocks.
var TaggedWord = &Analyzer{
	Name: "taggedword",
	Doc:  "report copies and direct overwrites of memory.TaggedRef registers",
	Run:  runTaggedWord,
}

// taggedHomePkg is the package owning the register types.
const taggedHomePkg = "internal/memory"

// taggedTypeNames are the register types whose copy breaks the tag
// discipline.
var taggedTypeNames = []string{"TaggedRef"}

func runTaggedWord(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					if copiesTagged(pass.Info, rhs) {
						pass.Reportf(rhs.Pos(), "assignment copies a %s register; share a pointer", taggedWhat(pass.Info, rhs))
					}
				}
				for _, lhs := range n.Lhs {
					if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
						if containsTagged(exprType(pass.Info, star)) {
							pass.Reportf(lhs.Pos(), "overwrite of a %s register through a pointer; registers advance only by CAS", taggedWhat(pass.Info, star))
						}
					}
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					if copiesTagged(pass.Info, v) {
						pass.Reportf(v.Pos(), "variable initialization copies a %s register; share a pointer", taggedWhat(pass.Info, v))
					}
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if copiesTagged(pass.Info, arg) {
						pass.Reportf(arg.Pos(), "call passes a %s register by value; pass a pointer", taggedWhat(pass.Info, arg))
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if copiesTagged(pass.Info, r) {
						pass.Reportf(r.Pos(), "return copies a %s register; return a pointer", taggedWhat(pass.Info, r))
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil && containsTagged(exprType(pass.Info, n.Value)) {
					pass.Reportf(n.Value.Pos(), "range copies %s registers; range over indices instead", taggedWhat(pass.Info, n.Value))
				}
			case *ast.SendStmt:
				if copiesTagged(pass.Info, n.Value) {
					pass.Reportf(n.Value.Pos(), "send copies a %s register; send a pointer", taggedWhat(pass.Info, n.Value))
				}
			case *ast.KeyValueExpr:
				if copiesTagged(pass.Info, n.Value) {
					pass.Reportf(n.Value.Pos(), "composite literal copies a %s register; share a pointer", taggedWhat(pass.Info, n.Value))
				}
			}
			return true
		})
	}
	return nil
}

// copiesTagged reports whether evaluating e copies an existing tagged
// register: its type embeds one and it denotes existing storage (an
// identifier, selector, index or dereference) rather than a freshly
// constructed value (composite literal or call result, which are the
// constructors' business).
func copiesTagged(info *types.Info, e ast.Expr) bool {
	if !containsTagged(exprType(info, e)) {
		return false
	}
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// taggedWhat names the offending register type for the diagnostic.
func taggedWhat(info *types.Info, e ast.Expr) string {
	t := exprType(info, e)
	for _, name := range taggedTypeNames {
		if typeHasTagged(t, name) {
			return name
		}
	}
	return "tagged"
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// containsTagged reports whether a value of type t physically contains
// a tagged register (pointers, slices and maps reference rather than
// contain, so they are fine to copy).
func containsTagged(t types.Type) bool {
	for _, name := range taggedTypeNames {
		if typeHasTagged(t, name) {
			return true
		}
	}
	return false
}

func typeHasTagged(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if typeNamed(t, taggedHomePkg, name) {
		return true
	}
	switch t := t.(type) {
	case *types.Named:
		return typeHasTagged(t.Underlying(), name)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if typeHasTagged(t.Field(i).Type(), name) {
				return true
			}
		}
	case *types.Array:
		return typeHasTagged(t.Elem(), name)
	}
	return false
}
