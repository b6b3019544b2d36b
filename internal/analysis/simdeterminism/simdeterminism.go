// Package simdeterminism flags wall-clock and unseeded-randomness calls in
// code that runs under the virtual clock.
//
// The sim determinism contract (internal/sim/doc.go) promises bit-for-bit
// identical runs for equal seeds. One time.Now or one global rand.Intn in
// process code silently voids that promise: the first feeds host time into
// virtual-time decisions, the second draws from a process-wide source whose
// state depends on everything else that ran. Randomness must come from a
// *rand.Rand seeded from the run's seed (rand.New(rand.NewSource(seed))),
// and time from the runtime's virtual clock (Proc.Now, Proc.Sleep).
//
// Exempt: package main (host-side drivers) and internal/msg/tcpnet (the
// real network transport, kept as a benchmark probe target). No file of
// internal/sim is exempt: the virtual clock is the only clock there is.
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"bridge/internal/analysis"
)

// Analyzer is the simdeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "flag wall-clock time and global math/rand in virtual-clock code\n\n" +
		"Code that runs under the virtual clock must take time from the sim " +
		"runtime and randomness from a seeded *rand.Rand, or runs stop " +
		"replaying bit-for-bit.",
	Run: run,
}

// wallClock lists the time functions that read or wait on the host clock.
var wallClock = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "Since": true, "Until": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// seededConstructors are the math/rand package functions that do not touch
// the global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || pass.Pkg.Name() == "main" {
		return nil
	}
	if strings.HasSuffix(pass.Pkg.Path(), "internal/msg/tcpnet") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClock[fn.Name()] {
					pass.Reportf(call.Pos(),
						"time.%s is wall-clock time: under the virtual clock use the sim runtime (Proc.Now, Proc.Sleep, Queue.RecvTimeout)",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !seededConstructors[fn.Name()] {
					pass.Reportf(call.Pos(),
						"rand.%s draws from the global math/rand source: thread a *rand.Rand seeded from the run seed instead",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
