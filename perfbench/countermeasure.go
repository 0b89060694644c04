package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// The Figure-5 countermeasure timeline at experiments.Figure5Config's
// defaults: hublaa.me and official-liker.net milked ten times a day for
// 75 days while the Section 6 defenses deploy on the paper's days.
const (
	cmScale           = 100
	cmSeed            = 1
	cmDays            = 75
	milksPerDay       = 10
	backgroundPerHour = 1
	joinFracPerDay    = 0.02
	returnFracPerDay  = 0.02
	baseTokenLimit    = 200
	reducedTokenLimit = 8
	ipDailyLimit      = 100
	ipWeeklyLimit     = 400
)

var cmNetworks = []string{"hublaa.me", "official-liker.net"}

// setupCountermeasure builds the study with the pre-existing token
// rate limit deployed.
func setupCountermeasure() (*core.Study, error) {
	study, err := core.NewStudy(workload.Options{
		Scale:    cmScale,
		Networks: cmNetworks,
		Seed:     cmSeed,
		Start:    time.Date(2016, time.August, 1, 0, 0, 0, 0, time.UTC),
		// hublaa.me's site was down on days 45-50.
		ExtraOutageDays: map[string][]int{"hublaa.me": {44, 45, 46, 47, 48, 49}},
	})
	if err != nil {
		return nil, err
	}
	study.Countermeasures().SetTokenRateLimit(baseTokenLimit, 24*time.Hour)
	return study, nil
}

func setupCountermeasureOnly(int64) (time.Duration, error) {
	t0 := time.Now()
	_, err := setupCountermeasure()
	return time.Since(t0), err
}

func runCountermeasure(env *Env) (*Iter, error) {
	it := &Iter{Tally: newTally()}
	t0 := time.Now()
	study, err := setupCountermeasure()
	if err != nil {
		return nil, err
	}
	it.Setup = time.Since(t0)
	cm := study.Countermeasures()

	p := study.Scenario.Platform
	lane := env.Spans.Lane()
	var background, invalidate, sweep []time.Duration
	timed := func(into *[]time.Duration, f func()) {
		t := time.Now()
		f()
		*into = append(*into, time.Since(t))
	}
	daily := make(map[string][]float64, len(cmNetworks))
	a := snapPhase(p)
	start := time.Now()
	for day := 1; day <= cmDays; day++ {
		switch day {
		case 12:
			cm.SetTokenRateLimit(reducedTokenLimit, 24*time.Hour)
		case 23:
			timed(&invalidate, func() { cm.InvalidateMilkedFraction(0.5) })
		case 28:
			timed(&invalidate, func() { cm.InvalidateMilkedAll() })
		case 46:
			cm.DeployIPRateLimits(ipDailyLimit, ipWeeklyLimit)
		case 55:
			cm.DeployClustering(time.Minute, 0.5, 3, 50)
		case 70:
			cm.BlockASes(workload.ASBulletproofA, workload.ASBulletproofB)
		}
		for _, ni := range study.Scenario.Networks {
			join := max(int(joinFracPerDay*float64(ni.ScaledMembership)), 1)
			ret := max(int(returnFracPerDay*float64(ni.ScaledMembership)), 1)
			if err := ni.JoinFresh(join); err != nil {
				return nil, err
			}
			if err := ni.ResubmitReturning(ret); err != nil {
				return nil, err
			}
		}
		sum := make(map[string]float64, len(cmNetworks))
		count := make(map[string]int, len(cmNetworks))
		for hour := 0; hour < 24; hour++ {
			for _, ni := range study.Scenario.Networks {
				name := ni.Spec.Name
				if count[name] < milksPerDay && hour*milksPerDay/24 >= count[name] {
					count[name]++
					op := env.Spans.NewOp()
					sp := lane.Begin("core.milk_round", 0, op)
					t := time.Now()
					res := study.MilkNetwork(name)
					it.OpLat = append(it.OpLat, time.Since(t))
					sp.End()
					it.Ops++
					if noteRound(it.Tally, res.Err) == OK {
						sum[name] += float64(res.Delivered)
						rs := lane.Begin("graphapi.read", 0, op)
						t = time.Now()
						crawl(p.API, study.Honeypots[name].Token(), res.PostID, len(res.Likers), lane, rs.ID(), op, it.Tally)
						it.ReadLat = append(it.ReadLat, time.Since(t))
						rs.End()
					}
				}
				bs := lane.Begin("collusion.background", 0, 0)
				timed(&background, func() { ni.BackgroundRequests(backgroundPerHour) })
				bs.End()
			}
			study.Scenario.Clock.Advance(time.Hour)
		}
		for _, n := range cmNetworks {
			daily[n] = append(daily[n], sum[n]/float64(max(count[n], 1)))
		}
		switch {
		case day >= 36:
			timed(&invalidate, func() { cm.InvalidateMilkedAll() })
		case day >= 28:
			timed(&invalidate, func() { cm.InvalidateMilkedFraction(0.5) })
		}
		if day >= 55 {
			timed(&sweep, func() { cm.RunClusteringSweep() })
		}
	}
	it.Wall = time.Since(start)
	b := snapPhase(p)
	it.Layer = phaseLayer(a, b, it.Ops)
	it.Layer["collusion.background_us_p50"] = us(p50(background))
	it.Layer["defense.invalidate_ms"] = ms(p50(invalidate))
	it.Layer["defense.cluster_sweep_ms"] = ms(p50(sweep))
	it.Likes, it.Layer["collusion.delivered_frac"] = deliveredLikes(study)
	it.Layer["collusion.likes_delivered"] = float64(it.Likes)
	it.HeapLive, it.Layer["socialgraph.heap_bytes_per_edge"] = measureHeap(p)
	it.CheckErr = checkFigure5(daily["hublaa.me"], daily["official-liker.net"])
	it.Notes = append(it.Notes, fmt.Sprintf("figure 5: %d likes delivered", it.Likes))

	if env.Spans != nil {
		in, reads := studyProbeInputs(study)
		pl, err := runProbe(p, in, reads, true)
		if err != nil {
			return nil, err
		}
		mergeInto(it.Layer, pl)
	}
	runtime.KeepAlive(study)
	return it, nil
}

// checkFigure5 checks the qualitative Figure-5 story on the daily
// average likes per post of each network (index 0 = day 1): the same
// assertions the experiments package's timeline test makes. Exact counts
// are not checked; see README.md on delivery fan-out.
func checkFigure5(hub, off []float64) error {
	if len(hub) != cmDays || len(off) != cmDays {
		return fmt.Errorf("series lengths %d, %d, want %d", len(hub), len(off), cmDays)
	}
	day := func(s []float64, d int) float64 { return s[d-1] }
	for d := 1; d <= 11; d++ {
		if day(hub, d) < 340 || day(off, d) < 380 {
			return fmt.Errorf("baseline day %d: hublaa=%.0f official=%.0f", d, day(hub, d), day(off, d))
		}
	}
	switch {
	case day(hub, 13) < 340:
		return fmt.Errorf("hublaa.me affected by the day-12 rate limit: %.0f", day(hub, 13))
	case day(off, 13) > 0.7*390:
		return fmt.Errorf("official-liker.net not limited on day 13: %.0f", day(off, 13))
	case day(off, 20) < 350:
		return fmt.Errorf("official-liker.net did not adapt by day 20: %.0f", day(off, 20))
	case day(hub, 29) > 0.5*350 || day(off, 29) > 0.5*390:
		return fmt.Errorf("day-28 sweep ineffective: hublaa=%.0f official=%.0f", day(hub, 29), day(off, 29))
	case day(hub, 35) < day(hub, 29):
		return fmt.Errorf("hublaa.me no bounce-back: day29=%.0f day35=%.0f", day(hub, 29), day(hub, 35))
	case day(hub, 40) == 0 || day(hub, 40) > 0.5*350:
		return fmt.Errorf("hublaa.me day 40 = %.0f", day(hub, 40))
	case day(hub, 52) == 0:
		return fmt.Errorf("hublaa.me did not resume after its outage")
	case day(hub, 60) == 0:
		return fmt.Errorf("hublaa.me killed by IP limits")
	case day(hub, 58) < 0.5*day(hub, 54):
		return fmt.Errorf("clustering unexpectedly effective: day54=%.0f day58=%.0f", day(hub, 54), day(hub, 58))
	}
	for d := 45; d <= 50; d++ {
		if day(hub, d) != 0 {
			return fmt.Errorf("hublaa.me served during its outage, day %d: %.0f", d, day(hub, d))
		}
	}
	for d := 48; d <= 69; d++ {
		if day(off, d) > 30 {
			return fmt.Errorf("official-liker.net alive after IP limits, day %d: %.0f", d, day(off, d))
		}
	}
	for d := 71; d <= 75; d++ {
		if day(hub, d) != 0 {
			return fmt.Errorf("hublaa.me alive after AS block, day %d: %.0f", d, day(hub, d))
		}
	}
	return nil
}
