// Fixture: plaintext printed or logged from library code. The
// no-plaintext-log ban is enforced by plaintext-flow: stdout, stderr
// and the process log are taint sinks at call sites in internal/
// packages, so only a flow from a //taint:source is reported.
package fixture

// Doc is a decrypted document held client-side.
type Doc struct {
	//taint:source decrypted body
	Text string
}
