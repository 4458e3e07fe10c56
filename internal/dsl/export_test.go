package dsl

// The random rule generator, for the external tests that check the engine
// against the reference interpreter (reference_test.go).
var (
	GenRule  = genRule
	RandText = randText
)
