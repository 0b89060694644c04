package graphapi_test

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/defense"
	"repro/internal/graphapi"
	"repro/internal/netsim"
	"repro/internal/oauthsim"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/socialgraph"
)

// likeWorld is one platform with a token limiter and an IP limiter in
// its chain, members with tokens (one of them suspended after
// authorizing), and one post to like.
type likeWorld struct {
	api     *graphapi.API
	obs     *obs.Observer
	graph   *socialgraph.Store
	members []socialgraph.Account
	tokens  []string
	post    socialgraph.Post
}

const likeWorldMembers = 6

// suspendedMember is the member whose account is suspended after its
// token was issued.
const suspendedMember = likeWorldMembers - 1

func newLikeWorld(t *testing.T) *likeWorld {
	t.Helper()
	epoch := time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewSimulated(epoch)
	w := &likeWorld{graph: socialgraph.NewWithShards(4)}
	reg := apps.NewRegistry()
	oauth := oauthsim.NewServer(clock, reg, w.graph)
	chain := graphapi.NewChain()
	chain.Append(defense.NewTokenRateLimiter(clock, 2, time.Hour))
	chain.Append(defense.NewIPRateLimiter(clock, 3, 100))
	w.api = graphapi.New(clock, w.graph, oauth, reg, netsim.NewInternet(), chain)
	w.obs = obs.New(clock)
	w.api.SetObserver(w.obs)
	app := reg.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	for i := 0; i < likeWorldMembers; i++ {
		acct := w.graph.CreateAccount("member", "IN", epoch)
		res, err := oauth.Authorize(oauthsim.AuthorizeRequest{
			AppID:        app.ID,
			RedirectURI:  app.RedirectURI,
			ResponseType: oauthsim.ResponseToken,
			Scopes:       []string{apps.PermPublishActions},
			AccountID:    acct.ID,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.members = append(w.members, acct)
		w.tokens = append(w.tokens, res.AccessToken)
	}
	if err := w.graph.SetSuspended(w.members[suspendedMember].ID, true); err != nil {
		t.Fatal(err)
	}
	author := w.graph.CreateAccount("author", "IN", epoch)
	var err error
	w.post, err = w.graph.CreatePost(author.ID, "p", socialgraph.WriteMeta{At: epoch})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// likeStep is one like of the scenario: member -1 uses an invalid token.
type likeStep struct {
	member int
	ip     string
	want   int // expected API error code, 0 = delivered
}

// op lowers a step to a batch op in w's token space.
func (w *likeWorld) op(s likeStep) graphapi.BatchLikeOp {
	tok := "EAABinvalid"
	if s.member >= 0 {
		tok = w.tokens[s.member]
	}
	return graphapi.BatchLikeOp{AccessToken: tok, SourceIP: s.ip}
}

// likers returns the post's likers as (member index, source IP) in like
// order. Account IDs differ between worlds, member indexes do not.
func (w *likeWorld) likers(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, l := range w.graph.Likes(w.post.ID) {
		idx := -1
		for i, m := range w.members {
			if m.ID == l.AccountID {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("like by unknown account %s", l.AccountID)
		}
		out = append(out, strconv.Itoa(idx)+"@"+l.SourceIP)
	}
	return out
}

// likeCounters returns the scraped graphapi_requests_total series of
// the like op.
func (w *likeWorld) likeCounters(t *testing.T) []string {
	t.Helper()
	var sb strings.Builder
	if err := w.obs.M().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "graphapi_requests_total{") && strings.Contains(line, `op="like"`) {
			out = append(out, line)
		}
	}
	return out
}

// TestLikeAndLikeBatchAgree drives one world with N Like calls and an
// identically built world with one LikeBatch of the same N ops, and
// requires everything a countermeasure or an operator can observe to
// match: per-op codes, the chain's denial counters, the likers with
// their source IPs in like order, and the request counters by code.
func TestLikeAndLikeBatchAgree(t *testing.T) {
	const ipA, ipB, ipC = "198.51.100.1", "198.51.100.2", "198.51.100.3"
	steps := []likeStep{
		{member: 0, ip: ipA, want: 0},
		{member: -1, ip: ipA, want: graphapi.CodeInvalidToken},
		{member: 0, ip: ipA, want: graphapi.CodeDuplicate},   // intra-batch duplicate
		{member: 0, ip: ipB, want: graphapi.CodeRateLimited}, // token's third write
		{member: suspendedMember, ip: ipB, want: graphapi.CodeAccountSuspended},
		{member: 1, ip: ipA, want: 0},
		{member: 2, ip: ipA, want: graphapi.CodeRateLimited}, // ipA's fourth like
		{member: 3, ip: ipC, want: 0},
		{member: 4, ip: ipB, want: 0},
	}

	single := newLikeWorld(t)
	singleCodes := make([]int, len(steps))
	for i, s := range steps {
		op := single.op(s)
		err := single.api.Like(graphapi.CallContext{AccessToken: op.AccessToken, SourceIP: op.SourceIP}, single.post.ID)
		singleCodes[i] = graphapi.ErrCode(err)
	}

	batched := newLikeWorld(t)
	ops := make([]graphapi.BatchLikeOp, len(steps))
	for i, s := range steps {
		ops[i] = batched.op(s)
	}
	errs := batched.api.LikeBatch(context.Background(), batched.post.ID, ops)
	batchCodes := make([]int, len(errs))
	for i, err := range errs {
		batchCodes[i] = graphapi.ErrCode(err)
	}

	for i, s := range steps {
		if singleCodes[i] != s.want {
			t.Errorf("Like op %d: code %d, want %d", i, singleCodes[i], s.want)
		}
	}
	if !reflect.DeepEqual(singleCodes, batchCodes) {
		t.Errorf("per-op codes: Like %v, LikeBatch %v", singleCodes, batchCodes)
	}
	sd, bd := single.api.Chain().Denials(), batched.api.Chain().Denials()
	if sd["token-rate-limit"] != 1 || sd["ip-rate-limit"] != 1 {
		t.Errorf("Like denials = %v, want one per limiter", sd)
	}
	if !reflect.DeepEqual(sd, bd) {
		t.Errorf("chain denials: Like %v, LikeBatch %v", sd, bd)
	}
	sl, bl := single.likers(t), batched.likers(t)
	if len(sl) != 4 {
		t.Errorf("Like likers = %v, want 4", sl)
	}
	if !reflect.DeepEqual(sl, bl) {
		t.Errorf("likers: Like %v, LikeBatch %v", sl, bl)
	}
	sc, bc := single.likeCounters(t), batched.likeCounters(t)
	if len(sc) != 5 { // codes 0, 190, 459, 520, 613
		t.Errorf("Like request counters = %q, want one series per code", sc)
	}
	if !reflect.DeepEqual(sc, bc) {
		t.Errorf("request counters:\nLike      %q\nLikeBatch %q", sc, bc)
	}
}
