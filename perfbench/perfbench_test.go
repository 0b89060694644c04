package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/collusion"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/provider"
)

var testStream = StreamConfig{Ops: 5000, Actors: 300, HotPosts: 64, ReadPosts: 8, LikeFrac: 0.85, ReadFrac: 0.10, ZipfS: 1.2}

func TestStreamIsSeeded(t *testing.T) {
	a, b := genStream(testStream, 7), genStream(testStream, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, genStream(testStream, 8)) {
		t.Fatal("different seeds gave the same stream")
	}
	e := expect(a)
	if e.Likes+e.Reads+e.Comments != testStream.Ops {
		t.Fatalf("kinds sum to %d, want %d", e.Likes+e.Reads+e.Comments, testStream.Ops)
	}
	if e.Distinct <= 0 || e.Duplicates() <= 0 {
		t.Fatalf("stream has %d distinct likes and %d duplicates; want both", e.Distinct, e.Duplicates())
	}
	for _, op := range a {
		if op.Kind == OpRead && int(op.Target) >= testStream.ReadPosts ||
			op.Kind != OpRead && int(op.Target) >= testStream.HotPosts {
			t.Fatalf("op %+v targets outside its pool", op)
		}
	}
}

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Microsecond
	}
	return d
}

func TestTailOf(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{10000, 99.9}, // 10 samples beyond p99.9
		{9999, 99},    // 9.999 beyond p99.9 is too few
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{20, 50},
		{19, 0}, // not even 10 samples beyond the median
	} {
		tail := tailOf(durations(c.n))
		if tail.Pct != c.wantPct || tail.N != c.n {
			t.Errorf("n=%d: got p%g with n=%d, want p%g", c.n, tail.Pct, tail.N, c.wantPct)
		}
		if c.wantPct > 0 {
			beyond := 0
			for _, d := range durations(c.n) {
				if d > tail.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: %d samples beyond p%g, want >= %d", c.n, beyond, tail.Pct, minBeyond)
			}
		}
	}
	if got := percentile(durations(100), 50); got != 50*time.Microsecond {
		t.Errorf("p50 of 1..100us = %v", got)
	}
}

func TestClassify(t *testing.T) {
	dup := &platform.RemoteAPIError{Code: 520, Kind: provider.KindDuplicate}
	for _, c := range []struct {
		name string
		err  error
		want Outcome
	}{
		{"success", nil, OK},
		{"graph api refusal", dup, Denied},
		{"wrapped refusal", fmt.Errorf("like: %w", dup), Denied},
		{"kind only", &platform.RemoteAPIError{Kind: provider.KindRateLimited}, Denied},
		{"transport error", errors.New("dial tcp 127.0.0.1:1: connection refused"), Failed},
		{"decode error", errors.New("unexpected EOF"), Failed},
	} {
		if got := classify(c.err); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}

	tally := newTally()
	tally.Note(dup)
	tally.Note(nil)
	if got := tally.NoteRead(nil, readLikes-1, readLikes); got != Failed {
		t.Errorf("short read classified %v, want Failed", got)
	}
	tally.NoteRead(nil, readLikes, readLikes)
	if noteRound(tally, fmt.Errorf("round: %w", collusion.ErrDailyLimit)) != Denied {
		t.Error("a site's daily limit is not an expected refusal")
	}
	if noteRound(tally, errors.New("boom")) != Failed {
		t.Error("an unknown round error is not a failure")
	}
	if tally.Attempted != 6 || tally.OK != 2 || tally.Failed != 2 || tally.Denied["duplicate"] != 1 || tally.DeniedTotal() != 2 {
		t.Errorf("tally = %s", tally)
	}
}

func TestCheckStreamRejectsPlantedErrors(t *testing.T) {
	exp := Expect{Likes: 100, Distinct: 90, Reads: 10, Comments: 5}
	good := func() *Tally {
		tl := newTally()
		for i := 0; i < exp.Distinct+exp.Reads+exp.Comments; i++ {
			tl.Note(nil)
		}
		for i := 0; i < exp.Duplicates(); i++ {
			tl.Note(&platform.RemoteAPIError{Code: 520, Kind: provider.KindDuplicate})
		}
		return tl
	}
	if err := checkStream(exp, 90, 90, good()); err != nil {
		t.Fatalf("correct outcome rejected: %v", err)
	}
	if checkStream(exp, 89, 90, good()) == nil {
		t.Error("one like short accepted")
	}
	if checkStream(exp, 90, 91, good()) == nil {
		t.Error("one extra like on the hot posts accepted")
	}
	extraDup := good()
	extraDup.Note(&platform.RemoteAPIError{Code: 520, Kind: provider.KindDuplicate})
	if checkStream(exp, 90, 90, extraDup) == nil {
		t.Error("one extra duplicate refusal accepted")
	}
	shortRead := good()
	shortRead.OK--
	shortRead.Attempted--
	shortRead.NoteRead(nil, readLikes-1, readLikes)
	if checkStream(exp, 90, 90, shortRead) == nil {
		t.Error("a read short by one like accepted")
	}
	denied := good()
	denied.Note(&platform.RemoteAPIError{Code: 613, Kind: provider.KindRateLimited})
	if checkStream(exp, 90, 90, denied) == nil {
		t.Error("a rate-limit denial accepted on a never-denying chain")
	}
}

func TestCheckTable4(t *testing.T) {
	if err := checkTable4(campaignPosts, campaignLikes, hublaaMembership); err != nil {
		t.Fatal(err)
	}
	if checkTable4(campaignPosts, campaignLikes+1, hublaaMembership) == nil {
		t.Error("Table-4 like total off by one accepted")
	}
	if checkTable4(campaignPosts-1, campaignLikes, hublaaMembership) == nil {
		t.Error("Table-4 post total off by one accepted")
	}
	if checkTable4(campaignPosts, campaignLikes, hublaaMembership+1) == nil {
		t.Error("hublaa.me membership off by one accepted")
	}
}

// TestTable4Constants pins the campaign's expected totals to what the
// program's own Table-4 experiment computes.
func TestTable4Constants(t *testing.T) {
	res, err := experiments.Table4(experiments.Table4Config{})
	if err != nil {
		t.Fatal(err)
	}
	all := res.Rows[len(res.Rows)-1]
	hublaa := 0
	for _, r := range res.Rows {
		if r.Network == "hublaa.me" {
			hublaa = r.MembershipEstimate
		}
	}
	if err := checkTable4(all.PostsSubmitted, all.TotalLikes, hublaa); err != nil {
		t.Fatal(err)
	}
}

// figure5Story is a daily series pair that tells the Figure-5 story.
func figure5Story() (hub, off []float64) {
	hub, off = make([]float64, cmDays), make([]float64, cmDays)
	for d := 1; d <= cmDays; d++ {
		h, o := 360.0, 390.0
		switch {
		case d >= 71:
			h, o = 0, 0
		case d >= 45 && d <= 50:
			h, o = 0, 0
		case d >= 29:
			h, o = 100, 0
		case d >= 13 && d < 20:
			o = 100
		}
		hub[d-1], off[d-1] = h, o
	}
	return hub, off
}

func TestCheckFigure5(t *testing.T) {
	hub, off := figure5Story()
	if err := checkFigure5(hub, off); err != nil {
		t.Fatalf("story rejected: %v", err)
	}
	hub[72] = 1 // alive after the AS block
	if checkFigure5(hub, off) == nil {
		t.Error("hublaa.me alive on day 73 accepted")
	}
	hub, off = figure5Story()
	off[12] = 390 // unaffected by the day-12 rate limit
	if checkFigure5(hub, off) == nil {
		t.Error("official-liker.net unaffected on day 13 accepted")
	}
	if checkFigure5(hub[:74], off) == nil {
		t.Error("short series accepted")
	}
}

func TestCampaignIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-4 campaign")
	}
	it, err := runCampaign(&Env{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if it.CheckErr != nil || it.Tally.Failed != 0 {
		t.Fatalf("check: %v; %s", it.CheckErr, it.Tally)
	}
	if it.Ops == 0 || len(it.OpLat) != int(it.Ops) || len(it.ReadLat) != campaignPosts {
		t.Fatalf("ops=%d op samples=%d read samples=%d", it.Ops, len(it.OpLat), len(it.ReadLat))
	}
}

func TestTracedAPIMixedTableCloses(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-account world")
	}
	rec := NewRecorder()
	it, err := runAPIMixed(&Env{Seed: 3, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	if it.CheckErr != nil {
		t.Fatal(it.CheckErr)
	}
	for _, pm := range perLayerMetrics {
		switch pm.Name {
		case "fail_frac", "op_tail_us", "read_tail_us",
			"obs.bench_overhead_us", "layer.e2e_untraced_us", "layer.e2e_traced_us", "layer.sum_us":
			continue // filled in by runTraced
		}
		if _, ok := it.Layer[pm.Name]; !ok {
			t.Errorf("per-layer metric %s not measured", pm.Name)
		}
	}
	table := buildLayerTable("api-mixed", p50(rec.Durations(unitSpan("api-mixed"))), it.Layer, p50(it.OpLat))
	if table.Sum() != table.Traced || table.Traced <= 0 {
		t.Fatalf("rows sum to %v, traced p50 %v", table.Sum(), table.Traced)
	}
	for _, r := range table.Rows {
		if r.D <= 0 {
			t.Errorf("row %s = %v", r.Name, r.D)
		}
	}
}
