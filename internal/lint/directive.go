// Suppression directives. A diagnostic can be acknowledged in source with
//
//	//lint:ignore RULE[,RULE...] reason
//
// on the same line as the offending code or on the line directly above
// it. The rule list names the diagnostics being suppressed and the reason
// is mandatory: an unexplained suppression is itself a diagnostic (rule
// "directive"), because the whole point of the suite is that deviations
// from the paper's invariants carry a written justification.
package lint

import (
	"errors"
	"strings"
)

// ErrNotDirective reports that a comment is not a lint directive at all.
var ErrNotDirective = errors.New("not a lint directive")

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	Rules  []string
	Reason string
	File   string
	Line   int
}

// ParseIgnoreDirective parses the text of a line comment (with the
// leading "//" already stripped). It returns ErrNotDirective when the
// comment is not a lint directive, and a descriptive error when it is one
// but malformed.
func ParseIgnoreDirective(text string) (rules []string, reason string, err error) {
	body, ok := strings.CutPrefix(strings.TrimLeft(text, " \t"), "lint:")
	if !ok {
		return nil, "", ErrNotDirective
	}
	verb, rest := cutSpace(body)
	if verb != "ignore" {
		return nil, "", errors.New("unknown lint directive //lint:" + quoteTrunc(verb) + " (only //lint:ignore is supported)")
	}
	ruleList, reason := cutSpace(rest)
	if ruleList == "" {
		return nil, "", errors.New("//lint:ignore needs a rule list: //lint:ignore RULE reason")
	}
	for _, r := range strings.Split(ruleList, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			return nil, "", errors.New("//lint:ignore has an empty rule in its rule list")
		}
		if !validRuleName(r) {
			return nil, "", errors.New("//lint:ignore rule " + quoteTrunc(r) + " has characters outside [a-z0-9-]")
		}
		rules = append(rules, r)
	}
	reason = strings.TrimSpace(reason)
	if reason == "" {
		return nil, "", errors.New("//lint:ignore " + ruleList + " is missing the mandatory reason")
	}
	return rules, reason, nil
}

// cutSpace splits s into its first whitespace-delimited token and the
// trimmed remainder.
func cutSpace(s string) (token, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexFunc(s, func(r rune) bool { return r == ' ' || r == '\t' })
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i+1:])
}

func validRuleName(r string) bool {
	for _, c := range r {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
		default:
			return false
		}
	}
	return true
}

// quoteTrunc quotes a possibly hostile string for an error message,
// keeping it short.
func quoteTrunc(s string) string {
	const max = 40
	if len(s) > max {
		s = s[:max] + "..."
	}
	out := make([]rune, 0, len(s)+2)
	out = append(out, '"')
	for _, c := range s {
		if c < 0x20 || c == 0x7f {
			out = append(out, '?')
			continue
		}
		out = append(out, c)
	}
	return string(append(out, '"'))
}
