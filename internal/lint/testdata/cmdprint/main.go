// Fixture: loaded as privedit/cmd/fixture. A program in cmd/ runs on the
// trusted client, so showing decrypted text to its own user on stdout,
// stderr or the log is not a finding.
package main

import (
	"fmt"
	"log"
	"os"

	"privedit/internal/core"
)

func main() {
	plain, err := core.Decrypt("pw", os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decrypted document: %q\n", plain)
	fmt.Fprintln(os.Stderr, plain)
	log.Println(plain)
}
