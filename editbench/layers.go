package main

import (
	"fmt"
	"io"
	"math"
)

// layerUnits is every per-layer metric with its unit, in ledger order;
// BENCHMARK.json lists the same names. The comment after each group names
// the end-to-end metric the group should move, and on which workload.
var layerUnits = []struct{ name, unit string }{
	{"loadgen.late_p99_ms", "ms"}, // validity: typing stays on schedule

	{"gdocs.diff_p50_ms", "ms"},       // → local_ack_p50_ms, typing
	{"gdocs.client_resyncs", "count"}, // → ops_per_s, coedit

	{"mediator.ingest_p50_ms", "ms"},            // → local_ack_*, typing and coedit
	{"mediator.ingest_p99_ms", "ms"},            //
	{"mediator.queue_wait_p50_ms", "ms"},        // → durable_ack_p50_ms, typing
	{"mediator.coalesced_frac", "ratio"},        // → durable_ack_p50_ms and wire bytes, typing
	{"mediator.server_saves_per_edit", "ratio"}, //
	{"mediator.full_save_frac", "ratio"},        // → durable_ack_p99_ms, typing
	{"mediator.conflicts_per_edit", "ratio"},    // → ops_per_s, coedit
	{"mediator.ot_merge_frac", "ratio"},         //

	{"blockdoc.transform_p50_ms", "ms"},   // → durable_ack_*, typing
	{"blockdoc.transform_p99_ms", "ms"},   //
	{"skiplist.finger_hit_frac", "ratio"}, // → blockdoc.transform_p50_ms, typing
	{"blockdoc.splits_per_edit", "ratio"}, // → wire bytes, typing
	{"rpcmode.encrypt_p50_ms", "ms"},      // → durable_ack_p99_ms, typing
	{"crypt.kdf_p50_ms", "ms"},            // → local_ack_p50_ms (the open), open
	{"crypt.base32_decode_p50_ms", "ms"},  //
	{"core.open_p50_ms", "ms"},            //

	{"http.save_p50_ms", "ms"},        // → durable_ack_*, typing
	{"http.save_p99_ms", "ms"},        //
	{"http.get_p50_ms", "ms"},         // → local_ack_p50_ms (the open), open
	{"http.catchup_p50_ms", "ms"},     // → durable_ack_p50_ms, open and coedit
	{"http.bytes_per_save", "B"},      // → wire bytes, typing
	{"http.resp_bytes_per_save", "B"}, // the ack echo; no end-to-end metric counts it

	{"gdocs.server_save_p50_ms", "ms"}, // → durable_ack_*, typing
	{"gdocs.server_save_p99_ms", "ms"}, //
	{"gdocs.server_get_p50_ms", "ms"},  // → local_ack_p50_ms (the open), open
	{"gdocs.cache_hit_frac", "ratio"},  //
	{"gdocs.cache_evictions", "count"}, //

	{"store.put_p50_ms", "ms"},           // → durable_ack_*, typing
	{"store.put_p99_ms", "ms"},           //
	{"store.get_p50_ms", "ms"},           // → local_ack_p50_ms (the open), open
	{"store.gets", "count"},              //
	{"store.fsyncs_per_put", "ratio"},    // → durable_ack_p50_ms, typing and coedit
	{"store.bytes_per_edit_byte", "B/B"}, // → durable_ack_p99_ms, typing
	{"store.checkpoints", "count"},       //

	{"runtime.gc_pause_ms_per_s", "ms/s"},   // → local_ack_p99_ms, typing
	{"runtime.sched_latency_p99_us", "us"},  //
	{"runtime.mutex_wait_ms_per_s", "ms/s"}, //
	{"runtime.alloc_mb_per_op", "MiB"},      //

	{"ledger.durable_unattributed_frac", "ratio"}, // typing
	{"ledger.open_unattributed_frac", "ratio"},    // open
	{"ledger.trace_overhead_frac", "ratio"},       // all
}

// perLayer assembles the ledger from the untraced window base and the
// traced window tw. Runtime use and tracing overhead compare the two; every
// other layer metric comes from tw. A metric the workload does not
// exercise is reported as 0 with a note saying so.
func perLayer(name string, base, tw *window, out io.Writer) map[string]metric {
	ix, rec := tw.spans, tw.rec
	edits := float64(tw.ops - tw.failed)
	if name == "open" {
		edits = 0 // opens edit nothing: per-edit ratios do not apply
	}
	saves := rec.total("http.saves")
	okSaves := saves - rec.total("http.conflicts")
	v := map[string]float64{}
	absent := map[string]bool{}
	set := func(metric string, x float64, ok bool) {
		v[metric] = finite(x)
		if !ok {
			absent[metric] = true
		}
	}
	q := func(metric string, xs []float64, p float64) {
		x, ok := pct(xs, p)
		set(metric, x, ok)
	}
	r := func(metric string, a, b float64) {
		x, ok := ratio(a, b)
		set(metric, x, ok)
	}

	q("loadgen.late_p99_ms", tw.late, 0.99)
	q("gdocs.diff_p50_ms", ix.ms["diff"], 0.50)
	set("gdocs.client_resyncs", float64(ix.clientResyncs), true)

	q("mediator.ingest_p50_ms", rec.samples("mediator.ingest"), 0.50)
	q("mediator.ingest_p99_ms", rec.samples("mediator.ingest"), 0.99)
	q("mediator.queue_wait_p50_ms", tw.queueWait, 0.50)
	r("mediator.coalesced_frac", float64(tw.ext.QueueCoalesced), float64(tw.ext.QueuedSaves))
	r("mediator.server_saves_per_edit", okSaves, edits)
	r("mediator.full_save_frac", rec.total("http.full_saves"), saves)
	r("mediator.conflicts_per_edit", rec.total("http.conflicts"), edits)
	r("mediator.ot_merge_frac", float64(tw.ext.OTMerges), float64(tw.ext.OTMerges+tw.ext.ConflictResyncs))

	q("blockdoc.transform_p50_ms", ix.ms["transform"], 0.50)
	q("blockdoc.transform_p99_ms", ix.ms["transform"], 0.99)
	hits, misses := tw.obs["privedit_skiplist_finger_hits_total"], tw.obs["privedit_skiplist_finger_misses_total"]
	r("skiplist.finger_hit_frac", hits, hits+misses)
	r("blockdoc.splits_per_edit", tw.obs["privedit_block_splits_total"], edits)
	q("rpcmode.encrypt_p50_ms", ix.ms["encrypt"], 0.50)
	q("crypt.kdf_p50_ms", tw.kdf, 0.50)
	q("crypt.base32_decode_p50_ms", tw.decode, 0.50)
	q("core.open_p50_ms", tw.coreOpen, 0.50)

	q("http.save_p50_ms", rec.samples("http.save"), 0.50)
	q("http.save_p99_ms", rec.samples("http.save"), 0.99)
	q("http.get_p50_ms", rec.samples("http.get"), 0.50)
	q("http.catchup_p50_ms", rec.samples("http.catchup"), 0.50)
	r("http.bytes_per_save", rec.total("http.save_req_bytes"), saves)
	r("http.resp_bytes_per_save", rec.total("http.save_resp_bytes"), saves)

	q("gdocs.server_save_p50_ms", rec.samples("server.save"), 0.50)
	q("gdocs.server_save_p99_ms", rec.samples("server.save"), 0.99)
	q("gdocs.server_get_p50_ms", rec.samples("server.get"), 0.50)
	cHits, cMisses := tw.obs["privedit_server_cache_hits_total"], tw.obs["privedit_server_cache_misses_total"]
	r("gdocs.cache_hit_frac", cHits, cHits+cMisses)
	set("gdocs.cache_evictions", tw.obs["privedit_server_cache_evictions_total"], true)

	q("store.put_p50_ms", rec.samples("store.put"), 0.50)
	q("store.put_p99_ms", rec.samples("store.put"), 0.99)
	q("store.get_p50_ms", rec.samples("store.get"), 0.50)
	set("store.gets", float64(len(rec.samples("store.get"))), true)
	r("store.fsyncs_per_put", tw.obs["privedit_store_wal_fsyncs_total"], tw.obs["privedit_store_puts_total"])
	plainEdited := tw.plain
	if name == "open" {
		plainEdited = 0
	}
	r("store.bytes_per_edit_byte", rec.total("store.put_bytes"), plainEdited)
	set("store.checkpoints", tw.obs["privedit_store_checkpoints_total"], true)

	// Waiting versus work, from the untraced window: tracing allocates.
	secs := base.elapsed.Seconds()
	r("runtime.gc_pause_ms_per_s", base.rt.gcPauseMs, secs)
	set("runtime.sched_latency_p99_us", base.rt.schedP99Us, true)
	r("runtime.mutex_wait_ms_per_s", base.rt.mutexWaitMs, secs)
	r("runtime.alloc_mb_per_op", base.rt.allocBytes/(1<<20), float64(base.ops))

	// The ledger: what the layers on the blocking path leave unexplained,
	// against whole-window medians like the layer numbers it subtracts.
	local50, _ := pct(latencies(tw.samples, false), 0.50)
	if name == "typing" {
		durable50, _ := pct(latencies(tw.samples, true), 0.50)
		explained := 0.0
		for _, m := range []string{"mediator.ingest_p50_ms", "mediator.queue_wait_p50_ms",
			"blockdoc.transform_p50_ms", "rpcmode.encrypt_p50_ms", "http.save_p50_ms"} {
			explained += v[m]
		}
		r("ledger.durable_unattributed_frac", durable50-explained, durable50)
	} else {
		set("ledger.durable_unattributed_frac", 0, false)
	}
	if name == "open" {
		r("ledger.open_unattributed_frac", local50-v["http.get_p50_ms"]-v["core.open_p50_ms"], local50)
	} else {
		set("ledger.open_unattributed_frac", 0, false)
	}
	base50, _ := pct(latencies(base.samples, false), 0.50)
	r("ledger.trace_overhead_frac", local50-base50, base50)

	m := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		m[lu.name] = metric{Value: v[lu.name], Unit: lu.unit}
		if absent[lu.name] {
			fmt.Fprintf(out, "# absent %s: not exercised by the %s workload (reported as 0)\n", lu.name, name)
		}
	}
	return m
}

// finite maps NaN and infinities to 0, which JSON cannot carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
