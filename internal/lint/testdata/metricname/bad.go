// Fixture: metric-name. Registrations through internal/obs must use
// constant privedit_-prefixed snake_case names.
package fixture

import "privedit/internal/obs"

// register exercises good and bad names against a private registry.
func register(dynamic string) {
	r := obs.NewRegistry()
	r.NewCounter("bad_total", "missing prefix").Inc()   // want `metric name "bad_total" must match privedit_<snake_case>`
	r.NewGauge("privedit_BadCase", "camel case").Set(1) // want `metric name "privedit_BadCase" must match privedit_<snake_case>`
	r.NewCounter(dynamic, "computed name").Inc()        // want `obs.NewCounter name must be a compile-time string constant`
	r.NewHistogram("privedit_fixture_seconds", "fine", nil).Observe(1)
	r.NewCounter(okName, "constants resolve fine").Inc()
}

// okName is a compile-time constant, which the analyzer folds.
const okName = "privedit_fixture_ops_total"

// registerDefault exercises the package-level helpers.
func registerDefault() {
	obs.NewCounter("also_bad_total", "missing prefix") // want `metric name "also_bad_total" must match privedit_<snake_case>`
	//lint:ignore metric-name fixture: demonstrating an acknowledged off-namespace metric
	obs.NewGauge("legacy_ratio", "acknowledged")
}

// registerResilience pins fault-injection and resilience metric families
// as analyzer-clean: names of the kind the netsim fault transport and the
// mediator's retry/degraded instrumentation register.
func registerResilience() {
	obs.NewCounter("privedit_netsim_faults_total", "by kind", "kind", "drop").Inc()
	obs.NewCounter("privedit_netsim_fault_requests_total", "storm traffic").Inc()
	obs.NewCounter("privedit_mediator_retry_attempts_total", "retries").Inc()
	obs.NewCounter("privedit_mediator_breaker_transitions_total", "by target", "to", "open").Inc()
	obs.NewGauge("privedit_mediator_breaker_open_docs", "open now").Set(0)
	obs.NewGauge("privedit_mediator_queued_saves", "shadow depth").Set(0)
	obs.NewCounter("privedit_mediator_degraded_total", "by op", "op", "save").Inc()
	obs.NewCounter("privedit_mediator_drains_total", "replays").Inc()

	// Near-misses around the new families must still be caught.
	obs.NewCounter("netsim_faults_total", "missing prefix")               // want `metric name "netsim_faults_total" must match privedit_<snake_case>`
	obs.NewCounter("privedit_mediator_retryAttempts_total", "camel case") // want `metric name "privedit_mediator_retryAttempts_total" must match privedit_<snake_case>`
}
