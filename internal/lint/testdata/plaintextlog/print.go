package fixture

import (
	"fmt"
	"log"
	"os"
	"strings"
)

// Process output in library code. Stdout, stderr and the process log
// are unencrypted auxiliary channels, so plaintext printed or logged
// from an internal/ package is a finding. Constants, strings that are
// formatted but never printed, and writers other than the standard
// streams are not.

// PrintLeak writes the decrypted body to stdout.
func PrintLeak(d *Doc) {
	fmt.Println("body:", d.Text) // want `plaintext reaches stdout: source: read of //taint:source field fixture\.Text.*sink: stdout \(fmt\.Println\)`
}

// LogLeak logs the body through a helper: the sink sits in logBody and
// fires once a caller hands it plaintext.
func LogLeak(d *Doc) {
	logBody(d.Text)
}

func logBody(s string) {
	log.Printf("saving %s", s) // want `plaintext reaches process log: .*passed to fixture\.logBody.*sink: process log \(log\.Printf\)`
}

// StderrLeak writes the body to the raw standard error stream.
func StderrLeak(d *Doc) {
	fmt.Fprintln(os.Stderr, d.Text) // want `plaintext reaches stdout/stderr`
}

// Banner prints a constant: no plaintext, no finding.
func Banner() {
	fmt.Println("privedit fixture")
	fmt.Fprintln(os.Stdout, "x")
}

// Quote formats the body into a string but prints nothing.
func Quote(d *Doc) string {
	return fmt.Sprintf("%q", d.Text)
}

// Render writes the body into a buffer, not a standard stream.
func Render(d *Doc) string {
	var b strings.Builder
	fmt.Fprintln(&b, d.Text)
	return b.String()
}

// Body is a source by annotation whose own body reads a source field,
// like core.Editor.Plaintext over blockdoc.Document.Plaintext: the spec
// and the composed summary name one leak, reported once.
//
//taint:source decrypted body accessor
func (d *Doc) Body() string { return d.Text }

// BodyLeak prints the accessor's result: exactly one finding.
func BodyLeak(d *Doc) {
	fmt.Println(d.Body()) // want `plaintext reaches stdout: source: //taint:source Body`
}
