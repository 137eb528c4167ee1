//go:build !race

package homac

const raceEnabled = false
