//go:build race

package asyncagree

// raceEnabled reports whether this test binary was built with the race
// detector. The byte ceilings skip there, since the race runtime's shadow
// allocations are not the trial's, and so does the sharded window's
// allocation pin, whose channel wakes the race runtime instruments.
const raceEnabled = true
