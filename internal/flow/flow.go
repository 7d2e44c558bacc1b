// Package flow implements the paper's filter F(p) and abstract
// interpretation procedure AI(F(p)) (§3.2, Figure 4): it reduces a parsed
// PHP program to the loop-free command language of package ai, preserving
// exactly the information-flow structure.
//
// The reduction follows the paper:
//
//   - only assignments, function calls, and conditional structures are
//     preserved; all other constructs are discarded;
//   - function calls are unfolded (inlined) up to a recursion cutoff;
//   - loop structures are deconstructed into selection structures (a
//     configurable unroll factor generalizes the paper's single pass);
//   - branch conditions become nondeterministic booleans;
//   - untrusted input channels, sensitive output channels, and sanitizers
//     are resolved against the prelude: UIC results become type constants,
//     SOC calls become assertions, sanitizer results become ⊥-level (or
//     prelude-specified) constants.
//
// Static file inclusions are resolved and spliced in, as WebSSARI's code
// walker did, so one entry file verifies together with everything it
// includes.
package flow

import (
	"webssari/internal/ai"
	"webssari/internal/ir"
	"webssari/internal/php/ast"
	"webssari/internal/php/parser"
	"webssari/internal/policy"
	"webssari/internal/prelude"
)

// Options configures the filter.
type Options struct {
	// Prelude supplies the trust environment. Required unless Policy is
	// set, in which case it defaults to the policy's compiled prelude.
	Prelude *prelude.Prelude
	// Policy is the active security policy. Optional: when set, it adds
	// sink classes, per-context sink bounds (via the HTML output-context
	// machine), and constant-argument sanitizer variants on top of the
	// prelude lookups.
	Policy *policy.Compiled
	// Loader reads included files by path; nil disables include resolution
	// (includes then produce a warning).
	Loader func(path string) ([]byte, error)
	// Dir is the directory against which relative include paths resolve
	// when they are not found relative to the including file.
	Dir string
	// MaxInlineDepth bounds recursive call unfolding per function name.
	// Zero means DefaultMaxInlineDepth.
	MaxInlineDepth int
	// LoopUnroll is the number of selection copies a loop deconstructs
	// into. Zero means 1, the paper's single pass; higher values trade AI
	// size for loop-carried-flow precision (an ablation in bench_test.go).
	LoopUnroll int
	// MaxCmds caps the AI size to keep pathological unfoldings bounded;
	// hitting the cap marks the Program Truncated so downstream stages
	// degrade to an Unknown verdict instead of claiming Safe over a
	// partial model. Zero means DefaultMaxCmds.
	MaxCmds int
}

// Defaults for Options fields left zero.
const (
	DefaultMaxInlineDepth = 2
	DefaultMaxCmds        = 500000
)

// superglobals are variables that refer to the global scope from any
// function body without a 'global' declaration.
var superglobals = map[string]bool{
	"_GET": true, "_POST": true, "_COOKIE": true, "_REQUEST": true,
	"_SERVER": true, "_SESSION": true, "_FILES": true, "_ENV": true,
	"GLOBALS": true,
}

// Build filters one parsed file (plus its static includes) into an AI
// program. Since the IR refactor it is a thin composition of ir.Lower and
// BuildUnit: parse → lower → F(p)/AI.
func Build(file *ast.File, opts Options) (*ai.Program, error) {
	unit, err := ir.Lower(file)
	if err != nil {
		return nil, err
	}
	return BuildUnit(unit, opts)
}

// BuildSource parses and filters PHP source text in one step.
func BuildSource(name string, src []byte, opts Options) (*ai.Program, []error) {
	res := parser.Parse(name, src)
	prog, err := Build(res.File, opts)
	errs := res.Errs
	if err != nil {
		errs = append(errs, err)
	}
	return prog, errs
}

// scope tracks variable-name resolution inside an unfolded function body.
type scope struct {
	// prefix is prepended to local variable names ("" at global scope).
	prefix string
	// globals lists names pulled in with a 'global' declaration.
	globals map[string]bool
	// retVar receives the function's return value ("" at global scope).
	retVar string
}
