package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/collusion"
	"repro/internal/core"
	"repro/internal/graphapi"
	"repro/internal/workload"
)

// The Table-4 milking campaign at the paper's configuration: scale 100,
// seed 1, all 22 networks, post quotas scaled 1/20 with a floor of 10,
// two background like requests per network per round, and a page request
// every fifth hour. campaignPosts, campaignLikes and hublaaMembership
// are its published totals (EXPERIMENTS.md, Table 4).
const (
	campaignScale      = 100
	campaignSeed       = 1
	postsDivisor       = 20
	minPosts           = 10
	backgroundPerRound = 2
	campaignPosts      = 605
	campaignLikes      = 132_150
	hublaaMembership   = 2_949
)

// siteRefusals are a collusion site's own refusals: expected friction of
// a campaign (daily caps, outages, pacing), not failures.
var siteRefusals = []error{
	collusion.ErrDailyLimit, collusion.ErrOutage, collusion.ErrTooSoon,
	collusion.ErrBanned, collusion.ErrNotMember,
}

// noteRound records one milking round's error in t and returns its
// outcome.
func noteRound(t *Tally, err error) Outcome {
	for _, r := range siteRefusals {
		if errors.Is(err, r) {
			t.NoteDenied("site:" + r.Error())
			return Denied
		}
	}
	return t.Note(err)
}

// crawl reads every page of likes on the honeypot's post through the
// Graph API, as the paper's crawler collected liker lists, and checks the
// count against what the round saw.
func crawl(api *graphapi.API, token, post string, want int, lane *Lane, parent, op int64, t *Tally) {
	n, err := readPages(api, graphapi.CallContext{AccessToken: token}, post, lane, parent, op)
	t.NoteRead(err, n, want)
}

// setupCampaign builds the study and each network's post quota.
func setupCampaign() (study *core.Study, quota map[string]int, maxQuota int, err error) {
	study, err = core.NewStudy(workload.Options{Scale: campaignScale, Seed: campaignSeed})
	if err != nil {
		return nil, nil, 0, err
	}
	quota = make(map[string]int)
	for _, ni := range study.Scenario.Networks {
		q := max(ni.Spec.PostsSubmitted/postsDivisor, minPosts)
		quota[ni.Spec.Name] = q
		maxQuota = max(maxQuota, q)
	}
	return study, quota, maxQuota, nil
}

func setupCampaignOnly(int64) (time.Duration, error) {
	t0 := time.Now()
	_, _, _, err := setupCampaign()
	return time.Since(t0), err
}

func runCampaign(env *Env) (*Iter, error) {
	it := &Iter{Tally: newTally()}
	t0 := time.Now()
	study, quota, maxQuota, err := setupCampaign()
	if err != nil {
		return nil, err
	}
	it.Setup = time.Since(t0)

	p := study.Scenario.Platform
	lane := env.Spans.Lane()
	var background []time.Duration
	done := make(map[string]int)
	a := snapPhase(p)
	start := time.Now()
	for hour := 0; hour < (maxQuota+10)*3; hour++ {
		allDone := true
		for _, ni := range study.Scenario.Networks {
			name := ni.Spec.Name
			if done[name] >= quota[name] {
				continue
			}
			allDone = false
			op := env.Spans.NewOp()
			sp := lane.Begin("core.milk_round", 0, op)
			t := time.Now()
			res := study.MilkNetwork(name)
			it.OpLat = append(it.OpLat, time.Since(t))
			sp.End()
			it.Ops++
			if noteRound(it.Tally, res.Err) == OK {
				done[name]++
				rs := lane.Begin("graphapi.read", 0, op)
				t = time.Now()
				crawl(p.API, study.Honeypots[name].Token(), res.PostID, len(res.Likers), lane, rs.ID(), op, it.Tally)
				it.ReadLat = append(it.ReadLat, time.Since(t))
				rs.End()
			}
			bs := lane.Begin("collusion.background", 0, op)
			t = time.Now()
			ni.BackgroundRequests(backgroundPerRound)
			background = append(background, time.Since(t))
			bs.End()
			if hour%5 == 0 {
				ni.BackgroundPageRequests(1)
			}
		}
		if allDone {
			break
		}
		study.AdvanceHour()
		study.SweepRetention()
	}
	it.Wall = time.Since(start)
	b := snapPhase(p)
	it.Layer = phaseLayer(a, b, it.Ops)
	it.Layer["collusion.background_us_p50"] = us(p50(background))
	it.Likes, it.Layer["collusion.delivered_frac"] = deliveredLikes(study)
	it.Layer["collusion.likes_delivered"] = float64(it.Likes)
	it.HeapLive, it.Layer["socialgraph.heap_bytes_per_edge"] = measureHeap(p)

	posts, likes := 0, 0
	for _, est := range study.Estimators {
		posts += est.PostsSubmitted()
		likes += est.TotalLikes()
	}
	hublaa := study.Estimators["hublaa.me"].MembershipEstimate()
	it.CheckErr = checkTable4(posts, likes, hublaa)
	it.Notes = append(it.Notes, fmt.Sprintf("table 4: %d posts, %d likes, hublaa.me membership %d", posts, likes, hublaa))

	if env.Spans != nil {
		in, reads := studyProbeInputs(study)
		pl, err := runProbe(p, in, reads, true)
		if err != nil {
			return nil, err
		}
		mergeInto(it.Layer, pl)
	}
	addZeros(it.Layer, countermeasureZeros)
	runtime.KeepAlive(study)
	return it, nil
}

// checkTable4 compares a campaign's totals with the published Table 4.
func checkTable4(posts, likes, hublaa int) error {
	if posts != campaignPosts || likes != campaignLikes || hublaa != hublaaMembership {
		return fmt.Errorf("table 4 totals %d posts / %d likes / hublaa.me %d, want %d / %d / %d",
			posts, likes, hublaa, campaignPosts, campaignLikes, hublaaMembership)
	}
	return nil
}

// deliveredLikes sums the likes every network delivered (milking and
// background requests) and returns it with the delivered share of the
// likes the networks attempted.
func deliveredLikes(study *core.Study) (int64, float64) {
	var delivered, attempted int64
	for _, ni := range study.Scenario.Networks {
		st := ni.Net.Stats()
		delivered += st.LikesDelivered
		attempted += st.LikesAttempted
	}
	return delivered, ratio(float64(delivered), float64(attempted))
}

// studyProbeInputs turns the likes on every honeypot post into replay
// inputs (the liker's pooled token, the post, the source IP), and returns
// the honeypot posts to read.
func studyProbeInputs(study *core.Study) ([]likeInput, []string) {
	g := study.Scenario.Platform.Graph
	var in []likeInput
	var reads []string
	for _, ni := range study.Scenario.Networks {
		pool := ni.Net.Pool()
		for _, post := range study.Honeypots[ni.Spec.Name].PostIDs() {
			reads = append(reads, post)
			for _, l := range g.Likes(post) {
				tok, ok := pool.Token(l.AccountID)
				if ok && len(in) < probeLikes {
					in = append(in, likeInput{Token: tok, Account: l.AccountID, Object: post, IP: l.SourceIP})
				}
			}
		}
	}
	return in, reads
}
