package main

import (
	"privedit/internal/gdocs"
	seeded "privedit/internal/workload"
)

// letters are the characters a typist's keystrokes insert.
const letters = "etaoinshrdlucmfwypvbgkjqxz      ,."

// burst types k keystrokes into c at *cursor: a letter or space inserted
// at the cursor, or one time in four a backspace. One burst in eight first
// moves the cursor somewhere else in the document; the rest continue where
// the previous burst stopped, as a typist does.
func burst(c *gdocs.Client, rng *seeded.Gen, cursor *int, k int) error {
	n := len(c.Text())
	if *cursor > n || rng.Intn(8) == 0 {
		*cursor = rng.Intn(n + 1)
	}
	for i := 0; i < k; i++ {
		if *cursor > 0 && rng.Intn(4) == 0 {
			if err := c.Replace(*cursor-1, 1, ""); err != nil {
				return err
			}
			*cursor--
			continue
		}
		if err := c.Replace(*cursor, 0, string(letters[rng.Intn(len(letters))])); err != nil {
			return err
		}
		*cursor++
	}
	return nil
}
