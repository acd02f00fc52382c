package lint

import (
	"strings"
	"testing"

	"privedit/internal/lint/taint"
)

func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		in      string
		rules   []string
		reason  string
		errPart string // "" = ok, "not" = ErrNotDirective, else substring of the error
	}{
		{"lint:ignore nonce-source seeded workload generator", []string{"nonce-source"}, "seeded workload generator", ""},
		{" lint:ignore ctx-first signature is fixed by net/http", []string{"ctx-first"}, "signature is fixed by net/http", ""},
		{"lint:ignore a,b two rules at once", []string{"a", "b"}, "two rules at once", ""},
		{"lint:ignore metric-name  extra   spaces survive in the reason", []string{"metric-name"}, "extra   spaces survive in the reason", ""},
		{"just a comment", nil, "", "not"},
		{"lint comment without colon", nil, "", "not"},
		{"nolint:foo other tool's syntax", nil, "", "not"},
		{"lint:ignore", nil, "", "needs a rule list"},
		{"lint:ignore nonce-source", nil, "", "missing the mandatory reason"},
		{"lint:ignore nonce-source,", nil, "", "empty rule"},
		{"lint:ignore a,,b double comma", nil, "", "empty rule"},
		{"lint:ignore Rule reason", nil, "", "outside [a-z0-9-]"},
		{"lint:file-ignore x y", nil, "", "unknown lint directive"},
	}
	for _, c := range cases {
		rules, reason, err := ParseIgnoreDirective(c.in)
		switch {
		case c.errPart == "":
			if err != nil {
				t.Errorf("%q: unexpected error %v", c.in, err)
				continue
			}
			if !equalStrings(rules, c.rules) || reason != c.reason {
				t.Errorf("%q: got (%v, %q), want (%v, %q)", c.in, rules, reason, c.rules, c.reason)
			}
		case c.errPart == "not":
			if err != ErrNotDirective {
				t.Errorf("%q: err = %v, want ErrNotDirective", c.in, err)
			}
		default:
			if err == nil || err == ErrNotDirective || !strings.Contains(err.Error(), c.errPart) {
				t.Errorf("%q: err = %v, want error containing %q", c.in, err, c.errPart)
			}
		}
	}
}

// FuzzDirective hammers both directive parsers — //lint:ignore and
// //taint: share the comment namespace, so they are fuzzed on the same
// corpus. Neither may panic; a successful parse must uphold the
// invariants its consumer relies on: suppression matching needs
// non-empty validated rules and a reason, and the taint engine needs
// every well-formed verb to be one it implements (an unknown verb that
// parsed cleanly would change the taint verdict without a trace).
func FuzzDirective(f *testing.F) {
	f.Add("lint:ignore nonce-source seeded workload generator")
	f.Add("lint:ignore a,b two rules")
	f.Add("lint:ignore")
	f.Add("lint:ignore x")
	f.Add("lint:frobnicate y z")
	f.Add("not a directive at all")
	f.Add("lint:ignore \t weird\twhitespace everywhere ")
	f.Add("lint:ignore a,,b reason")
	f.Add("lint:ignore " + strings.Repeat("x", 1000) + " long rule")
	f.Add("taint:source decrypted body")
	f.Add("taint:sanitizer encrypt-then-encode path")
	f.Add("taint:clean ciphertext mirror")
	f.Add("taint:")
	f.Add("taint:sink transport body")
	f.Add("taint:Source case matters")
	f.Add("taint: source leading space before the verb")
	f.Add("taint:" + strings.Repeat("v", 1000))
	f.Fuzz(func(t *testing.T, text string) {
		rules, reason, err := ParseIgnoreDirective(text)
		if err != nil {
			if len(rules) != 0 || reason != "" {
				t.Fatalf("error %v returned with non-zero results (%v, %q)", err, rules, reason)
			}
		} else {
			if len(rules) == 0 {
				t.Fatal("ok parse returned no rules")
			}
			for _, r := range rules {
				if r == "" || !validRuleName(r) {
					t.Fatalf("ok parse returned invalid rule %q", r)
				}
			}
			if strings.TrimSpace(reason) == "" {
				t.Fatal("ok parse returned empty reason")
			}
			if reason != strings.TrimSpace(reason) {
				t.Fatalf("reason %q not trimmed", reason)
			}
		}

		verb, note, terr := taint.ParseTaintDirective(text)
		if terr != nil {
			if verb != "" || note != "" {
				t.Fatalf("taint error %v returned with non-zero results (%q, %q)", terr, verb, note)
			}
			// The two families must stay disjoint: a comment can be a
			// malformed taint directive or a malformed lint directive,
			// never both (the sweep reports the taint error first).
			if terr != taint.ErrNotDirective && err != nil && err != ErrNotDirective {
				t.Fatalf("text %q is malformed under both parsers", text)
			}
			return
		}
		switch verb {
		case taint.VerbSource, taint.VerbSanitizer, taint.VerbClean:
		default:
			t.Fatalf("ok taint parse returned unimplemented verb %q", verb)
		}
		if note != strings.TrimSpace(note) {
			t.Fatalf("taint note %q not trimmed", note)
		}
	})
}
