//go:build race

package homac

// raceEnabled lets the allocation assertions skip under the race detector:
// race-mode sync.Pool deliberately drops items, so pooled kernels allocate
// by design there.
const raceEnabled = true
