// Fixture: nonce-source must flag deterministic and out-of-place CSPRNG
// imports in non-test code.
package fixture

import (
	"crypto/rand"     // want `import of crypto/rand outside internal/crypt`
	mrand "math/rand" // want `import of math/rand: deterministic randomness is banned`
)

// Draw uses both sources so the imports are live.
func Draw() (int, byte) {
	var b [1]byte
	_, _ = rand.Read(b[:])
	return mrand.Intn(10), b[0]
}
