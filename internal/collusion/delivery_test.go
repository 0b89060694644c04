package collusion

// Proof that the transport's shape is invisible to the defenses. A
// platform.BatchClient transport takes each sampled slice in one
// LikeBatch call, coalescing only the store write: OAuth validation and
// the token and IP rate limiters still run once per like, in sample
// order. A transport that exposes only platform.Client fires the same
// slice as one Like per action. From the same seed both must agree on
// every observable — engine stats, per-policy denials, and which likes
// survive the limiters — bit for bit.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/platform"
)

// perCallClient hides every optional transport extension, leaving the
// engine nothing but per-call platform.Client methods.
type perCallClient struct{ platform.Client }

// deliveryRun is one campaign's observables.
type deliveryRun struct {
	stats   Stats
	denials map[string]int64
	likers  map[string][]string // post → sorted liker account IDs
}

// runDefendedCampaign builds a harness whose network talks to the
// platform through client(local), deploys tight token and IP limiters,
// kills a slice of the pool mid-run, and milks posts for a simulated day.
func runDefendedCampaign(t *testing.T, client func(*platform.LocalClient) platform.Client) deliveryRun {
	t.Helper()
	cfg := Config{
		LikesPerRequest:   60,
		MaxPerTokenHourly: 100,
		IPs:               []string{"198.51.100.1", "198.51.100.2", "198.51.100.3"},
		Seed:              7,
	}
	h := newHarness(t, cfg, 0)
	h.client = client(platform.NewLocalClient(h.p))
	h.network = NewNetwork(h.network.Config(), h.clock, h.client)
	h.p.Chain().Append(defense.NewTokenRateLimiter(h.clock, 3, 24*time.Hour))
	h.p.Chain().Append(defense.NewIPRateLimiter(h.clock, 80, 400))
	for i := 0; i < 120; i++ {
		h.join(t, fmt.Sprintf("member-%d", i))
	}

	run := deliveryRun{likers: make(map[string][]string)}
	for r := 0; r < 12; r++ {
		if r == 4 {
			// Dead tokens: the engine must drop the same members either way.
			for _, m := range h.members[10:40] {
				h.p.OAuth.InvalidateAccount(m.ID, "test sweep")
			}
		}
		requester := h.members[r%5]
		post := h.post(t, requester)
		if _, err := h.network.RequestLikes(requester.ID, post.ID, ""); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, l := range h.p.Graph.Likes(post.ID) {
			ids = append(ids, l.AccountID)
		}
		sort.Strings(ids)
		run.likers[post.ID] = ids
		h.clock.Advance(2 * time.Hour)
	}
	run.stats = h.network.Stats()
	run.denials = h.p.Chain().Denials()
	return run
}

func TestDeliveryDefenseEquivalenceAcrossTransports(t *testing.T) {
	batched := runDefendedCampaign(t, func(c *platform.LocalClient) platform.Client { return c })
	perCall := runDefendedCampaign(t, func(c *platform.LocalClient) platform.Client { return perCallClient{c} })

	if !reflect.DeepEqual(batched.stats, perCall.stats) {
		t.Errorf("engine stats diverge:\nbatched  %+v\nper-call %+v", batched.stats, perCall.stats)
	}
	if !reflect.DeepEqual(batched.denials, perCall.denials) {
		t.Errorf("defense-chain denials diverge: batched %v, per-call %v", batched.denials, perCall.denials)
	}
	if !reflect.DeepEqual(batched.likers, perCall.likers) {
		t.Error("liker sets diverge between transports")
	}

	// The comparison must have exercised every failure path, not
	// compared zeros.
	for _, policy := range []string{"token-rate-limit", "ip-rate-limit"} {
		if batched.denials[policy] == 0 {
			t.Errorf("no %s denials; the limiter never bit (denials %v)", policy, batched.denials)
		}
	}
	if batched.stats.TokensDropped == 0 {
		t.Error("no dead tokens dropped; the invalidation never bit")
	}
}
