// Fixture: malformed //lint:ignore directives are themselves reported
// under the non-suppressible "directive" pseudo-rule. Because the
// diagnostic lands on the comment line itself, expectations here use
// the form that applies to the preceding line.
package fixture

//lint:ignore
// want-above `needs a rule list`
func a() {}

//lint:ignore nonce-source
// want-above `missing the mandatory reason`
func b() {}

//lint:frobnicate something
// want-above `unknown lint directive`
func c() {}

//lint:ignore nonce-source, trailing comma makes an empty rule
// want-above `empty rule in its rule list`
func d() {}

//lint:ignore BadRule! characters outside the rule alphabet
// want-above `characters outside \[a-z0-9-\]`
func e() {}

//lint:ignore metric-name a well-formed directive that suppresses nothing is harmless
func f() {}

//lint:ignore mutex-by-value a rule that is not in the suite (go vet's copylocks checks this now)
// want-above `names unknown rule "mutex-by-value"`
func g() {}
