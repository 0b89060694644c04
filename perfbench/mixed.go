package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/defense"
	"repro/internal/graphapi"
	"repro/internal/oauthsim"
	"repro/internal/platform"
	"repro/internal/socialgraph"
	"repro/internal/workload"
)

// The api-mixed world and stream. http-wire replays the first httpOps
// ops of the same stream over HTTP.
const (
	mixedAccounts  = 200_000
	mixedTokens    = 20_000
	mixedReadPosts = 32
	readLikes      = 250 // = 3 pages of 100
	pageLimit      = 100
	mixedClients   = 2
	apiOps         = 120_000
	httpOps        = 12_000
	ipPool         = 4096
	commentText    = "bench comment"
)

var mixedStream = StreamConfig{
	Actors:    mixedTokens,
	ReadPosts: mixedReadPosts,
	LikeFrac:  0.85,
	ReadFrac:  0.10,
	ZipfS:     1.2,
}

// mixedWorld is a built scale world with minted tokens, read-only posts
// and the op stream.
type mixedWorld struct {
	sw     *workload.ScaleWorld
	p      *platform.Platform
	tokens []string
	ips    []string
	reads  []string
	ops    []Op
	exp    Expect
}

// buildMixed builds the world for seed with the first n ops of the
// stream.
func buildMixed(seed int64, n int) (*mixedWorld, error) {
	sw, err := workload.BuildScale(workload.ScaleConfig{Accounts: mixedAccounts, Seed: seed})
	if err != nil {
		return nil, err
	}
	p := sw.Platform
	w := &mixedWorld{sw: sw, p: p}
	app := p.Apps.Register(apps.Config{
		Name:              "HTC Sense",
		RedirectURI:       "https://htc.example/cb",
		ClientFlowEnabled: true,
		Lifetime:          apps.LongTerm,
		Permissions:       []string{apps.PermPublicProfile, apps.PermPublishActions},
	})
	w.tokens = make([]string, mixedTokens)
	for i := range w.tokens {
		res, err := p.OAuth.Authorize(oauthsim.AuthorizeRequest{
			AppID:        app.ID,
			RedirectURI:  app.RedirectURI,
			ResponseType: oauthsim.ResponseToken,
			Scopes:       []string{apps.PermPublishActions},
			AccountID:    sw.AccountID(i),
		})
		if err != nil {
			return nil, fmt.Errorf("minting token %d: %w", i, err)
		}
		w.tokens[i] = res.AccessToken
	}
	// Two limiters whose limits are never reached: the defense layer does
	// its full bookkeeping on every write without denying any.
	p.Chain().Append(defense.NewTokenRateLimiter(sw.Clock, 1<<30, 24*time.Hour))
	p.Chain().Append(defense.NewIPRateLimiter(sw.Clock, 1<<30, 1<<30))

	// Read-only posts with a like count fixed here, so a read's cost
	// never depends on what earlier ops delivered. Their likers are
	// accounts outside the token holders.
	at := sw.Clock.Now()
	likes := make([]socialgraph.LikeOp, readLikes)
	for i := 0; i < mixedReadPosts; i++ {
		post, err := p.Graph.CreatePost(sw.Pages[i%len(sw.Pages)], "read-only", socialgraph.WriteMeta{At: at})
		if err != nil {
			return nil, err
		}
		for j := range likes {
			likes[j] = socialgraph.LikeOp{
				AccountID: sw.AccountID(mixedTokens + (i*readLikes+j)%(mixedAccounts-mixedTokens)),
				ObjectID:  post.ID,
				Meta:      socialgraph.WriteMeta{SourceIP: "192.0.2.1", At: at},
			}
		}
		for _, err := range p.Graph.AddLikeBatch(likes) {
			if err != nil {
				return nil, fmt.Errorf("read post likes: %w", err)
			}
		}
		w.reads = append(w.reads, post.ID)
	}
	w.ips = make([]string, ipPool)
	for i := range w.ips {
		w.ips[i] = fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255)
	}
	cfg := mixedStream
	cfg.Ops, cfg.HotPosts = apiOps, len(sw.Posts)
	w.ops = genStream(cfg, seed)[:n]
	w.exp = expect(w.ops)
	return w, nil
}

func (w *mixedWorld) ip(actor int32) string { return w.ips[int(actor)%len(w.ips)] }

// client is one closed-loop client's share of the stream and its
// measurements.
type client struct {
	ops     []Op
	lane    *Lane
	tally   *Tally
	likeLat []time.Duration
	readLat []time.Duration
	applied int64
	wire    wireStats
	http    *platform.HTTPClient // http-wire only
}

// split partitions the stream by actor, so each token is used by one
// client only and ops keep their stream order within a client.
func (w *mixedWorld) split(rec *Recorder) []*client {
	cs := make([]*client, mixedClients)
	for i := range cs {
		cs[i] = &client{lane: rec.Lane(), tally: newTally()}
	}
	for _, op := range w.ops {
		c := cs[int(op.Actor)%mixedClients]
		c.ops = append(c.ops, op)
	}
	return cs
}

// drive runs every client on its own goroutine until its ops are done,
// and returns the wall time.
func drive(cs []*client, do func(c *client)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			do(c)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// finish folds the clients into it and checks the stream's expected
// outcome: one success per distinct (actor, post) pair, a duplicate
// refusal for every other like, full reads, and every comment applied.
func (w *mixedWorld) finish(it *Iter, cs []*client, wall time.Duration) {
	it.Wall = wall
	it.Tally = newTally()
	for _, c := range cs {
		it.Tally.Merge(c.tally)
		it.OpLat = append(it.OpLat, c.likeLat...)
		it.ReadLat = append(it.ReadLat, c.readLat...)
		it.Likes += c.applied
		it.Ops += int64(len(c.ops))
	}
	var onPosts int64
	for _, id := range w.sw.Posts {
		onPosts += int64(w.p.Graph.LikeCount(id))
	}
	it.CheckErr = checkStream(w.exp, it.Likes, onPosts, it.Tally)
	it.Notes = append(it.Notes, fmt.Sprintf("stream: %d likes (%d distinct, %d duplicates), %d reads, %d comments",
		w.exp.Likes, w.exp.Distinct, w.exp.Duplicates(), w.exp.Reads, w.exp.Comments))
}

// checkStream checks a stream's outcome against exp: applied is the
// likes the clients saw succeed and onPosts the likes the hot posts hold
// afterwards.
func checkStream(exp Expect, applied, onPosts int64, t *Tally) error {
	dups := t.Denied["duplicate"]
	switch {
	case applied != int64(exp.Distinct):
		return fmt.Errorf("%d likes applied, want %d (distinct pairs)", applied, exp.Distinct)
	case dups != int64(exp.Duplicates()):
		return fmt.Errorf("%d duplicate refusals, want %d", dups, exp.Duplicates())
	case t.DeniedTotal() != dups:
		return fmt.Errorf("unexpected denials: %s", t)
	case onPosts != int64(exp.Distinct):
		return fmt.Errorf("hot posts hold %d likes, want %d", onPosts, exp.Distinct)
	case t.OK != int64(exp.Distinct+exp.Reads+exp.Comments):
		return fmt.Errorf("%d ops succeeded, want %d", t.OK, exp.Distinct+exp.Reads+exp.Comments)
	case t.Failed != 0:
		return fmt.Errorf("%d ops failed, first: %s", t.Failed, t.FirstFailure)
	}
	return nil
}

// probeInputs returns the first likes of the stream and the read posts
// as replay-probe inputs.
func (w *mixedWorld) probeInputs() ([]likeInput, []string) {
	var in []likeInput
	for _, op := range w.ops {
		if op.Kind == OpLike && len(in) < probeLikes {
			in = append(in, likeInput{
				Token:   w.tokens[op.Actor],
				Account: w.sw.AccountID(int(op.Actor)),
				Object:  w.sw.Posts[op.Target],
				IP:      w.ip(op.Actor),
			})
		}
	}
	var reads []string
	for r := 0; r < 4; r++ {
		reads = append(reads, w.reads...)
	}
	return in, reads
}

func setupAPIMixedOnly(seed int64) (time.Duration, error) {
	t0 := time.Now()
	w, err := buildMixed(seed, apiOps)
	if err == nil {
		w.split(nil)
	}
	return time.Since(t0), err
}

func runAPIMixed(env *Env) (*Iter, error) {
	it := &Iter{}
	t0 := time.Now()
	w, err := buildMixed(env.Seed, apiOps)
	if err != nil {
		return nil, err
	}
	cs := w.split(env.Spans)
	it.Setup = time.Since(t0)

	api := w.p.API
	a := snapPhase(w.p)
	wall := drive(cs, func(c *client) {
		for _, op := range c.ops {
			cc := graphapi.CallContext{AccessToken: w.tokens[op.Actor], SourceIP: w.ip(op.Actor)}
			id := env.Spans.NewOp()
			switch op.Kind {
			case OpLike:
				sp := c.lane.Begin("graphapi.like", 0, id)
				t := time.Now()
				err := api.Like(cc, w.sw.Posts[op.Target])
				c.likeLat = append(c.likeLat, time.Since(t))
				sp.End()
				if c.tally.Note(err) == OK {
					c.applied++
				}
			case OpRead:
				sp := c.lane.Begin("graphapi.read", 0, id)
				t := time.Now()
				n, err := readPages(api, cc, w.reads[op.Target], c.lane, sp.ID(), id)
				c.readLat = append(c.readLat, time.Since(t))
				sp.End()
				c.tally.NoteRead(err, n, readLikes)
			case OpComment:
				sp := c.lane.Begin("graphapi.comment", 0, id)
				_, err := api.Comment(cc, w.sw.Posts[op.Target], commentText)
				sp.End()
				c.tally.Note(err)
			}
		}
	})
	b := snapPhase(w.p)
	w.finish(it, cs, wall)
	it.Layer = phaseLayer(a, b, it.Ops)
	it.HeapLive, it.Layer["socialgraph.heap_bytes_per_edge"] = measureHeap(w.p)
	if env.Spans != nil {
		in, reads := w.probeInputs()
		pl, err := runProbe(w.p, in, reads, true)
		if err != nil {
			return nil, err
		}
		mergeInto(it.Layer, pl)
	}
	addZeros(it.Layer, collusionZeros, countermeasureZeros)
	runtime.KeepAlive(w)
	return it, nil
}

// readPages reads every page of likes on object through the Graph API
// and returns how many likes it saw.
func readPages(api *graphapi.API, cc graphapi.CallContext, object string, lane *Lane, parent, op int64) (int, error) {
	n, after := 0, 0
	for {
		sp := lane.Begin("graphapi.likes_page", parent, op)
		page, next, more, err := api.LikesPage(cc, object, after, pageLimit)
		sp.End()
		if err != nil {
			return n, err
		}
		n += len(page)
		if !more {
			return n, nil
		}
		after = next
	}
}

// setupHTTPWire builds the world and starts the server and one
// HTTPClient per client. The caller closes the server.
func setupHTTPWire(seed int64, rec *Recorder) (*mixedWorld, []*client, *wireServer, error) {
	w, err := buildMixed(seed, httpOps)
	if err != nil {
		return nil, nil, nil, err
	}
	cs := w.split(rec)
	ws := newWireServer(w.p.Handler(), rec != nil)
	for _, c := range cs {
		c.http = platform.NewHTTPClient(ws.URL())
	}
	return w, cs, ws, nil
}

func setupHTTPWireOnly(seed int64) (time.Duration, error) {
	t0 := time.Now()
	_, _, ws, err := setupHTTPWire(seed, nil)
	d := time.Since(t0)
	if ws != nil {
		ws.Close()
	}
	return d, err
}

func runHTTPWire(env *Env) (*Iter, error) {
	it := &Iter{}
	t0 := time.Now()
	w, cs, ws, err := setupHTTPWire(env.Seed, env.Spans)
	if err != nil {
		return nil, err
	}
	defer ws.Close()
	it.Setup = time.Since(t0)
	timed := env.Spans != nil

	a := snapPhase(w.p)
	wall := drive(cs, func(c *client) {
		hc := c.http
		for _, op := range c.ops {
			tok, ip := w.tokens[op.Actor], w.ip(op.Actor)
			id := env.Spans.NewOp()
			var sp Span
			switch op.Kind {
			case OpLike:
				sp = c.lane.Begin("platform.like", 0, id)
				t := time.Now()
				err := hc.Like(tok, w.sw.Posts[op.Target], ip)
				d := time.Since(t)
				sp.End()
				c.likeLat = append(c.likeLat, d)
				if timed {
					c.wire.noteLike(d, recordServer(c.lane, ws.Take(tok), sp.ID(), id))
				}
				if c.tally.Note(err) == OK {
					c.applied++
				}
			case OpRead:
				sp = c.lane.Begin("platform.read", 0, id)
				t := time.Now()
				likes, err := hc.LikesOf(tok, w.reads[op.Target])
				c.readLat = append(c.readLat, time.Since(t))
				sp.End()
				if timed {
					c.wire.noteRead(recordServer(c.lane, ws.Take(tok), sp.ID(), id))
				}
				c.tally.NoteRead(err, len(likes), readLikes)
			case OpComment:
				sp = c.lane.Begin("platform.comment", 0, id)
				_, err := hc.Comment(tok, w.sw.Posts[op.Target], commentText, ip)
				sp.End()
				if timed {
					recordServer(c.lane, ws.Take(tok), sp.ID(), id)
				}
				c.tally.Note(err)
			}
		}
	})
	b := snapPhase(w.p)
	w.finish(it, cs, wall)
	it.Layer = phaseLayer(a, b, it.Ops)
	conns := ws.Conns()
	it.Layer["platform.http.conns_per_op"] = ratio(float64(conns), float64(it.Ops))
	it.Notes = append(it.Notes, fmt.Sprintf("wire: %d TCP connections for %d ops", conns, it.Ops))
	it.HeapLive, it.Layer["socialgraph.heap_bytes_per_edge"] = measureHeap(w.p)
	if timed {
		var st wireStats
		for _, c := range cs {
			st.merge(&c.wire)
		}
		mergeInto(it.Layer, st.layer(ws, it.Ops))
		in, reads := w.probeInputs()
		pl, err := runProbe(w.p, in, reads, false)
		if err != nil {
			return nil, err
		}
		mergeInto(it.Layer, pl)
	}
	addZeros(it.Layer, collusionZeros, countermeasureZeros)
	runtime.KeepAlive(w)
	return it, nil
}

// recordServer adds the server's view of calls as child spans of parent
// and returns calls.
func recordServer(lane *Lane, calls []serverCall, parent, op int64) []serverCall {
	for _, c := range calls {
		lane.Add("platform.server", parent, op, c.Start, c.End)
	}
	return calls
}
