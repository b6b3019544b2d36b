// Package suite lists the bridgevet analyzers: the machine-checked half of
// the sim determinism contract (see DESIGN.md, "Determinism contract &
// static enforcement").
package suite

import (
	"bridge/internal/analysis"
	"bridge/internal/analysis/errcmp"
	"bridge/internal/analysis/journalorder"
	"bridge/internal/analysis/lockedblock"
	"bridge/internal/analysis/maporder"
	"bridge/internal/analysis/obsexport"
	"bridge/internal/analysis/rawgoroutine"
	"bridge/internal/analysis/simdeterminism"
	"bridge/internal/analysis/spanend"
	"bridge/internal/analysis/syncerr"
	"bridge/internal/analysis/untimedwait"
)

// All returns every analyzer in the bridgevet suite, in report order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simdeterminism.Analyzer,
		maporder.Analyzer,
		rawgoroutine.Analyzer,
		lockedblock.Analyzer,
		errcmp.Analyzer,
		obsexport.Analyzer,
		spanend.Analyzer,
		journalorder.Analyzer,
		syncerr.Analyzer,
		untimedwait.Analyzer,
	}
}

// Names returns the analyzer names a //bridgevet:allow directive may
// reference.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}
