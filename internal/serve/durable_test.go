package serve

import (
	"strings"
	"testing"

	"timr/internal/dur"
	"timr/internal/temporal"
)

// prepared builds a Server over the baseline config with the durable
// store rooted at dir. Prepare is deterministic in the config seeds, so
// two calls model two OS processes over the same dataset — exactly what
// a kill -9 restart looks like.
func prepared(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := testConfig()
	if mut != nil {
		mut(&cfg)
	}
	srv, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDurableServeRestartBitIdentity(t *testing.T) {
	// Reference: one uninterrupted run without durability.
	_, want, err := prepared(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	durable := func(c *Config) { c.DurDir = dir }

	// Process one: killed mid-run, well past the first committed waves.
	if _, err := prepared(t, durable).RunKilled(700); err != nil {
		t.Fatal(err)
	}

	// Process two: same Prepare, same DurDir — resumes and finishes.
	rep, got, err := prepared(t, durable).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resumed {
		t.Fatal("restarted run did not recover the durable generation")
	}
	// The resume re-feeds from the last committed wave (just before the
	// kill at 700) to the end; the committed prefix must be skipped.
	if rep.Requests >= 1500 || rep.Requests < 1500-700 {
		t.Fatalf("resume re-fed %d of 1500 requests; want the post-wave tail only", rep.Requests)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("restarted serving diverges: %d vs %d events", len(got), len(want))
	}
}

func TestDurableServeResumeRequiresOffset(t *testing.T) {
	// A generation without the reduced source's input offset cannot be
	// resumed by seeking; the restart must fail loudly, not restart the
	// schedule from scratch.
	dir := t.TempDir()
	durable := func(c *Config) { c.DurDir = dir }
	if _, err := prepared(t, durable).RunKilled(700); err != nil {
		t.Fatal(err)
	}
	store, err := dur.OpenStore(dir, dur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store.Load()
	if err != nil || rec == nil {
		t.Fatalf("load newest generation: rec=%v err=%v", rec, err)
	}
	rec.Snap.Offsets = nil
	if err := store.Commit(rec.Snap); err != nil {
		t.Fatal(err)
	}
	_, _, err = prepared(t, durable).Run()
	if err == nil {
		t.Fatal("resume from a generation without an input offset must fail")
	}
	if msg := err.Error(); !strings.Contains(msg, `"reduced"`) || !strings.Contains(msg, "offset") {
		t.Fatalf("error does not name the missing reduced offset: %v", err)
	}
}

func TestDurableServeKillBeforeAnyWave(t *testing.T) {
	// A kill before the first wave leaves the store empty: the restart
	// is a clean start (nothing to resume) and still bit-identical.
	_, want, err := prepared(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	durable := func(c *Config) { c.DurDir = dir }
	if _, err := prepared(t, durable).RunKilled(3); err != nil {
		t.Fatal(err)
	}
	rep, got, err := prepared(t, durable).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed {
		t.Fatal("no generation was committed, yet the run claims a resume")
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("clean restart diverges: %d vs %d events", len(got), len(want))
	}
}

func TestDurableServeRestartUnderInjectedFaults(t *testing.T) {
	// The same drill through a faulty disk. Commit failures cost only
	// recovery freshness (an older generation, a longer replay — or a
	// clean start if nothing committed), never output fidelity.
	_, want, err := prepared(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	faulty := func(seed int64) func(*Config) {
		return func(c *Config) {
			c.DurDir = dir
			c.DurFS = dur.NewFaultFS(dur.OS{}, dur.FaultConfig{Rate: 0.2, Seed: seed})
		}
	}
	if _, err := prepared(t, faulty(11)).RunKilled(700); err != nil {
		t.Fatal(err)
	}
	_, got, err := prepared(t, faulty(12)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("faulty-disk restart diverges: %d vs %d events", len(got), len(want))
	}
}

func TestDurableServePacedKillAndResume(t *testing.T) {
	// Kill -9 in paced mode must not wedge the generator goroutine, and
	// the paced resume walks the same schedule to the same bytes.
	paced := func(c *Config) {
		c.Requests = 300
		c.Rate = 50_000
		c.Queue = 32
	}
	_, want, err := prepared(t, paced).Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	durable := func(c *Config) { paced(c); c.DurDir = dir }
	if _, err := prepared(t, durable).RunKilled(150); err != nil {
		t.Fatal(err)
	}
	_, got, err := prepared(t, durable).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.EventsEqual(got, want) {
		t.Fatalf("paced restart diverges: %d vs %d events", len(got), len(want))
	}
}
