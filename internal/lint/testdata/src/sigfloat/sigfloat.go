// Package sigfloat fixtures the signature-float check: functions on the
// signature/cache-key path (name matches (?i)(sig|key)) must not spell floats
// with fmt or strconv float formatting — only the canonical SigNum speller.
package sigfloat

import (
	"fmt"
	"strconv"
	"strings"
)

// cacheKey formats a float with fmt on the key path: %g drops precision and
// collides distinct values. Finding.
func cacheKey(k float64, m int) string {
	return fmt.Sprintf("%d|%g", m, k) // want `fmt\.Sprintf formats a float in a signature/cache-key path`
}

// writeSignature spells a float with strconv on the signature path. Finding.
func writeSignature(b *strings.Builder, x float64) {
	b.WriteString(strconv.FormatFloat(x, 'g', -1, 64)) // want `strconv\.FormatFloat in a signature/cache-key path`
}

// appendKeyPart uses AppendFloat. Finding.
func appendKeyPart(dst []byte, x float64) []byte {
	return strconv.AppendFloat(dst, x, 'g', -1, 64) // want `strconv\.AppendFloat in a signature/cache-key path`
}

// rangeSignature spells an interval's upper bound with %g, which prints -0
// and 0 differently (SigNum folds them), so two equal predicates take two
// cache slots. Finding.
func rangeSignature(b *strings.Builder, hi float64) {
	b.WriteString(fmt.Sprintf("%g", hi)) // want `fmt\.Sprintf formats a float in a signature/cache-key path`
}

// signatureInts formats only integers on the key path. Clean.
func signatureInts(m, n int) string {
	return fmt.Sprintf("%d|%d", m, n)
}

// render is not on the signature path (name matches neither sig nor key), so
// float formatting is fine here. Clean.
func render(x float64) string {
	return fmt.Sprintf("x=%g", x)
}
