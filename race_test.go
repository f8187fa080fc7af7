//go:build race

package powerrchol

// raceEnabled reports a race-detector build, under which sync.Pool
// drops recycled items at random, so allocation budgets do not hold.
const raceEnabled = true
