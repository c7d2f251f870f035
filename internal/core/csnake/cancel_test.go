package csnake

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestAnytimeCancellationMidWave is the regression test for campaign
// teardown: a cancellation that lands mid-wave (here: during the second
// experiment of the first wave) must surface as context.Canceled -- not
// as a nil error with a partial report -- must seal no round on the
// partial evidence, and must not fire CampaignFinished, whose contract is
// "the campaign ran to completion".
func TestAnytimeCancellationMidWave(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &eventRecorder{onExperiment: func(n int) {
		if n == 2 {
			cancel()
		}
	}}
	rep, err := NewCampaign(tinySystem{},
		append(tinyOpts(), WithAnytime(), WithWaveSize(3),
			WithContext(ctx), WithObserver(rec))...).Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled campaign returned no partial report")
	}
	if len(rep.Rounds) != 0 {
		t.Fatalf("cancelled wave sealed %d round(s) on partial evidence", len(rep.Rounds))
	}
	for _, e := range rec.snapshot() {
		if e == "finished" {
			t.Fatal("CampaignFinished fired for a cancelled campaign")
		}
		if strings.HasPrefix(e, "round:") {
			t.Fatalf("%s delivered for a wave that was cut short", e)
		}
	}
}

// TestBatchCancellation covers the batch path: cancelling before the run
// starts yields context.Canceled immediately.
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := &eventRecorder{}
	_, err := NewCampaign(tinySystem{},
		append(tinyOpts(), WithContext(ctx), WithObserver(rec))...).Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, e := range rec.snapshot() {
		if e == "finished" {
			t.Fatal("CampaignFinished fired for a cancelled campaign")
		}
	}
}

// TestCancelledCampaignReleasesTraces asserts the teardown resource
// contract: after Driver.Release the profile cache holds no pooled runs,
// whether the campaign finished or was cancelled, and Release is
// idempotent.
func TestCancelledCampaignReleasesTraces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &eventRecorder{onExperiment: func(n int) {
		if n == 2 {
			cancel()
		}
	}}
	_, driver, err := NewCampaign(tinySystem{},
		append(tinyOpts(), WithAnytime(), WithWaveSize(3),
			WithContext(ctx), WithObserver(rec))...).run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if driver == nil {
		t.Fatal("no driver returned")
	}
	if held := driver.ProfileRunsHeld(); held == 0 {
		t.Skip("campaign cancelled before any profile run was recorded")
	}
	driver.Release()
	if held := driver.ProfileRunsHeld(); held != 0 {
		t.Fatalf("after Release: %d profile runs still held", held)
	}
	driver.Release() // idempotent
	if held := driver.ProfileRunsHeld(); held != 0 {
		t.Fatalf("after second Release: %d profile runs held", held)
	}
}

// A finished campaign holds pooled profile runs until the Release that
// Run performs on the way out.
func TestRunReleasesTraces(t *testing.T) {
	rep, driver, err := NewCampaign(tinySystem{}, tinyOpts()...).run()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || driver == nil {
		t.Fatal("missing report or driver")
	}
	if held := driver.ProfileRunsHeld(); held == 0 {
		t.Fatal("expected pooled profile runs before Release")
	}
	driver.Release()
	if held := driver.ProfileRunsHeld(); held != 0 {
		t.Fatalf("after Release: %d profile runs still held", held)
	}
}
