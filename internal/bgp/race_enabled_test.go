//go:build race

package bgp

// raceEnabled reports that this test binary was built with -race, whose
// detector allocates on its own.
const raceEnabled = true
