package cpu

// BuilderAt, ExpandFiller and StateOf open the package's test helpers
// to its external tests, which may import the packages that build
// cores on a machine.
var (
	BuilderAt    = builderAt
	ExpandFiller = expandFiller
	StateOf      = coreState
)
