// Package relation is the fixture mirror of internal/relation: its import
// path contains "internal/relation", so SigNum here is the approved float
// speller, and the package is in the hottime, fsyncguard and frozenguard
// scopes.
package relation

import "strconv"

// SigNum mirrors the real canonical float speller: its qualified name matches
// SigNumFuncs, so its strconv.FormatFloat call is the one sanctioned site
// even though the function name matches the sig/key pattern. Clean.
func SigNum(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}
