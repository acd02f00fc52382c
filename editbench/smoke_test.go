package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks the benchmark so every workload runs in seconds while
// still crossing the layers its checks demand: checkpoints while typing,
// evictions while opening, collisions while co-editing.
func tinyConfig(t *testing.T, workload string, seed int64, traced bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.traced = workload, seed, traced
	cfg.dir = t.TempDir()
	cfg.window = 2 * time.Second
	cfg.setups, cfg.setupTime = 2, 0
	cfg.keystrokes = 6
	cfg.checkpointBytes = 16 << 10
	cfg.typingDocs, cfg.typingChars, cfg.typingWarm = 2, 2000, 200*time.Millisecond
	cfg.openDocs, cfg.openChars, cfg.openWarm, cfg.openProbes = 64, 1000, 8, 2
	cfg.coeditDocs, cfg.coeditChars, cfg.coeditWarm = 2, 2000, 200*time.Millisecond
	return cfg
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func runTiny(t *testing.T, cfg config) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s seed %d: %v\n%s", cfg.workload, cfg.seed, err, out.String())
	}
	return res, out.String()
}

// TestEveryMetricEmitted runs all three workloads untraced and traced and
// checks each emits exactly the declared metrics, finite and with their
// declared unit, and that end-to-end metrics are never 0.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, workload := range []string{"typing", "open", "coedit"} {
		for _, traced := range []bool{false, true} {
			res, out := runTiny(t, tinyConfig(t, workload, 1, traced))
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					workload, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", workload, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", workload, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", workload, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", workload, traced, name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end %s is 0", workload, name)
				}
			}
		}
	}
}

// TestInjectedFaultFailsTyping corrupts one byte of every state the store
// keeps for one document; the typing check must catch it.
func TestInjectedFaultFailsTyping(t *testing.T) {
	cfg := tinyConfig(t, "typing", 1, false)
	cfg.fault = "typing-00"
	res, out := runTiny(t, cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted store passed the checks\n%s", out)
	}
	if !strings.Contains(out, "# FAILED check: typing-00") {
		t.Errorf("no failed check names the corrupted document\n%s", out)
	}
}

// TestSecondSeedPasses runs every workload on another seed.
func TestSecondSeedPasses(t *testing.T) {
	for _, workload := range []string{"typing", "open", "coedit"} {
		if res, out := runTiny(t, tinyConfig(t, workload, 2, false)); !res.Correct {
			t.Errorf("%s seed 2 failed\n%s", workload, out)
		}
	}
}
