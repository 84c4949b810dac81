package script

import "github.com/ipa-grid/ipa/internal/aida"

// Hooks for the differential tests of package script_test, which need
// the record decoders of other packages and so cannot live in package
// script.

// Runner is the surface shared by the compiled and reference interpreters.
type Runner = refRunner

// NewReference builds the tree-walking reference interpreter.
func NewReference(opts Options) Runner { return newRef(opts) }

// InstallExtraGlobals binds the registered globals (e.g. pairMass) into r.
func InstallExtraGlobals(r Runner) { installExtraGlobals(r.Define) }

// NewTree binds an AIDA tree the way an analysis does.
func NewTree(t *aida.Tree) Value { return newTreeObject(t) }

// PerEventFuel is the budget an analysis tops up before every record.
const PerEventFuel = perEventFuel

// AnalysisFuel reports an analysis interpreter's remaining fuel.
func AnalysisFuel(a *Analysis) int64 { return a.interp.RemainingFuel() }
