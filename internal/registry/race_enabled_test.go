//go:build race

package registry

// raceEnabled reports whether this test binary was built with the race
// detector. The peak-memory assertion skips there: the race runtime's
// shadow memory makes heap readings unrepresentative of the production
// allocator.
const raceEnabled = true
