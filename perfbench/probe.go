package main

import (
	"fmt"
	"time"

	"repro/internal/graphapi"
	"repro/internal/platform"
	"repro/internal/socialgraph"
)

// Replay-probe sizes: the probe replays at most probeLikes of a
// workload's likes through each inner layer, and probeWireLikes of them
// over HTTP.
const (
	probeLikes      = 20_000
	probeWireLikes  = 2_000
	probeCommentGap = 8 // one comment replayed per this many likes
)

// likeInput is one like as a workload issued it.
type likeInput struct {
	Token, Account, Object, IP string
}

// runProbe replays a workload's own inputs through the public function
// of each layer the benchmark cannot open from outside, on the world the
// workload just ran on, and returns each layer's median:
//
//   - oauthsim.Server.Validate on each like's token;
//   - graphapi.Chain.Evaluate on the request graphapi would build;
//   - socialgraph.Store.AddLike onto a fresh replica of each liked post,
//     so the store sees the same actors and the same duplicates;
//   - graphapi.API.Like and Comment onto a second replica set;
//   - socialgraph.Store.LikesPage and graphapi.API.LikesPage over the
//     objects in reads;
//   - with wire, HTTPClient.Like and LikesOf against the platform's own
//     handler, for workloads that do not use HTTP themselves.
//
// It runs after the op phase and its checks, so the state it adds
// changes no reported outcome.
func runProbe(p *platform.Platform, in []likeInput, reads []string, wire bool) (map[string]float64, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("probe: no like inputs")
	}
	replicaA, err := replicas(p.Graph, in)
	if err != nil {
		return nil, err
	}
	replicaB, err := replicas(p.Graph, in)
	if err != nil {
		return nil, err
	}
	var validate, evaluate, addLike, apiLike, apiComment []time.Duration
	reader := ""
	chain := p.Chain()
	for _, x := range in {
		at := p.Clock.Now()
		t := time.Now()
		info, err := p.OAuth.Validate(x.Token)
		validate = append(validate, time.Since(t))
		if err != nil {
			continue
		}
		if reader == "" {
			reader = x.Token
		}
		app, err := p.Apps.Get(info.AppID)
		if err != nil {
			continue
		}
		req := graphapi.Request{Verb: graphapi.VerbLike, ObjectID: x.Object, Token: info, App: app, SourceIP: x.IP, At: at}
		if p.Internet != nil {
			if as, ok := p.Internet.LookupASString(x.IP); ok {
				req.ASN = as.Number
			}
		}
		t = time.Now()
		chain.Evaluate(req)
		evaluate = append(evaluate, time.Since(t))
	}
	for _, x := range in {
		meta := socialgraph.WriteMeta{SourceIP: x.IP, At: p.Clock.Now()}
		t := time.Now()
		_ = p.Graph.AddLike(x.Account, replicaA[x.Object], meta) // duplicates replay as refusals, as in the workload
		addLike = append(addLike, time.Since(t))
	}
	accepted := 0
	for i, x := range in {
		cc := graphapi.CallContext{AccessToken: x.Token, SourceIP: x.IP}
		t := time.Now()
		err := p.API.Like(cc, replicaB[x.Object])
		apiLike = append(apiLike, time.Since(t))
		if err == nil {
			accepted++
		}
		if i%probeCommentGap == 0 {
			t = time.Now()
			_, _ = p.API.Comment(cc, replicaB[x.Object], commentText)
			apiComment = append(apiComment, time.Since(t))
		}
	}
	var storePage, apiPage []time.Duration
	for _, r := range reads {
		for after, more := 0, true; more; {
			t := time.Now()
			_, after, more = p.Graph.LikesPage(r, after, pageLimit)
			storePage = append(storePage, time.Since(t))
		}
		if reader == "" {
			continue
		}
		cc := graphapi.CallContext{AccessToken: reader}
		for after, more := 0, true; more; {
			t := time.Now()
			var err error
			_, after, more, err = p.API.LikesPage(cc, r, after, pageLimit)
			apiPage = append(apiPage, time.Since(t))
			if err != nil {
				break
			}
		}
	}
	m := map[string]float64{
		"oauthsim.validate_us_p50":      us(p50(validate)),
		"defense.evaluate_us_p50":       us(p50(evaluate)),
		"socialgraph.add_like_us_p50":   us(p50(addLike)),
		"socialgraph.likes_page_us_p50": us(p50(storePage)),
		"graphapi.like_us_p50":          us(p50(apiLike)),
		"graphapi.comment_us_p50":       us(p50(apiComment)),
		"graphapi.likes_page_us_p50":    us(p50(apiPage)),
		"graphapi.like_accept_frac":     ratio(float64(accepted), float64(len(in))),
	}
	if wire {
		wl, err := wireProbe(p, in, reads, reader)
		if err != nil {
			return nil, err
		}
		mergeInto(m, wl)
	}
	return m, nil
}

// wireProbe replays likes and reads over HTTP against the platform's own
// handler and returns the platform.http metrics.
func wireProbe(p *platform.Platform, in []likeInput, reads []string, reader string) (map[string]float64, error) {
	if len(in) > probeWireLikes {
		in = in[:probeWireLikes]
	}
	replica, err := replicas(p.Graph, in)
	if err != nil {
		return nil, err
	}
	ws := newWireServer(p.Handler(), true)
	defer ws.Close()
	hc := platform.NewHTTPClient(ws.URL())
	var st wireStats
	ops := int64(0)
	for _, x := range in {
		t := time.Now()
		_ = hc.Like(x.Token, replica[x.Object], x.IP)
		st.noteLike(time.Since(t), ws.Take(x.Token))
		ops++
	}
	if reader != "" {
		for _, r := range reads {
			_, _ = hc.LikesOf(reader, r)
			st.noteRead(ws.Take(reader))
			ops++
		}
	}
	return st.layer(ws, ops), nil
}

// replicas creates one fresh post per distinct liked object, authored by
// the object's owner, and maps each object to its replica.
func replicas(g *socialgraph.Store, in []likeInput) (map[string]string, error) {
	out := make(map[string]string)
	for _, x := range in {
		if _, ok := out[x.Object]; ok {
			continue
		}
		owner, err := g.OwnerOf(x.Object)
		if err != nil {
			return nil, fmt.Errorf("probe: owner of %s: %w", x.Object, err)
		}
		post, err := g.CreatePost(owner, "probe replica", socialgraph.WriteMeta{})
		if err != nil {
			return nil, fmt.Errorf("probe: replica of %s: %w", x.Object, err)
		}
		out[x.Object] = post.ID
	}
	return out, nil
}

// mergeInto copies src into dst.
func mergeInto(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// Metrics of layers a workload does not exercise; they report 0.
var (
	collusionZeros      = []string{"collusion.background_us_p50", "collusion.delivered_frac", "collusion.likes_delivered"}
	countermeasureZeros = []string{"defense.cluster_sweep_ms", "defense.invalidate_ms"}
)

// addZeros sets each named metric to 0.
func addZeros(dst map[string]float64, lists ...[]string) {
	for _, l := range lists {
		for _, k := range l {
			dst[k] = 0
		}
	}
}
