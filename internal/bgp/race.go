//go:build race

package bgp

// raceEnabled is true in race-instrumented builds: the windowed executor
// starts Config.Shards workers whatever GOMAXPROCS is, so the race tier
// exercises the concurrent paths on any host (see windowWorkers).
const raceEnabled = true
