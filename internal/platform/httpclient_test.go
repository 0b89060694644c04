package platform

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/socialgraph"
)

// TestHTTPClientReusesConnection pins that HTTPClient hands every
// connection back to the keep-alive pool. net/http drops a connection
// whose response body was closed with bytes unread, such as an ignored
// success body: without the drain, each Like below dials a new
// connection. The reads and the multi-chunk batch pin the same property
// for decoded bodies. Every phase talks to its own server, so the pool
// cannot carry a connection over from the phase before.
func TestHTTPClientReusesConnection(t *testing.T) {
	w := newWorld(t)
	local := NewLocalClient(w.p)
	const n = 120
	tokens := make([]string, n)
	for i := range tokens {
		m := w.p.Graph.CreateAccount(fmt.Sprintf("conn-member-%d", i), "IN", t0)
		tok, err := local.AuthorizeImplicit(w.app.ID, w.app.RedirectURI, m.ID,
			[]string{apps.PermPublishActions, apps.PermPublicProfile})
		if err != nil {
			t.Fatal(err)
		}
		tokens[i] = tok
	}
	newPost := func() socialgraph.Post {
		post, err := w.p.Graph.CreatePost(w.author.ID, "conn post", socialgraph.WriteMeta{At: t0})
		if err != nil {
			t.Fatal(err)
		}
		return post
	}
	// phase runs f against a fresh server and fails unless the whole
	// sequence rode one connection.
	phase := func(name string, f func(c *HTTPClient)) {
		t.Helper()
		var conns atomic.Int64
		srv := httptest.NewUnstartedServer(w.p.Handler())
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns.Add(1)
			}
		}
		srv.Start()
		defer srv.Close()
		f(NewHTTPClient(srv.URL))
		if got := conns.Load(); got != 1 {
			t.Errorf("%s used %d connections, want 1", name, got)
		}
	}

	const likes = 20
	phase(fmt.Sprintf("%d sequential Likes", likes), func(c *HTTPClient) {
		post := newPost()
		for _, tok := range tokens[:likes] {
			if err := c.Like(tok, post.ID, "192.0.2.1"); err != nil {
				t.Fatal(err)
			}
		}
	})

	// 250 likes: every read walks three pages of at most 100.
	read := newPost()
	for i := 0; i < 250; i++ {
		acct := w.p.Graph.CreateAccount(fmt.Sprintf("conn-liker-%d", i), "IN", t0)
		if err := w.p.Graph.AddLike(acct.ID, read.ID, socialgraph.WriteMeta{At: t0}); err != nil {
			t.Fatal(err)
		}
	}
	const reads = 10
	phase(fmt.Sprintf("%d LikesOf reads", reads), func(c *HTTPClient) {
		for i := 0; i < reads; i++ {
			got, err := c.LikesOf(tokens[i], read.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 250 {
				t.Fatalf("LikesOf returned %d likes, want 250", len(got))
			}
		}
	})

	phase(fmt.Sprintf("one %d-op LikeBatch", n), func(c *HTTPClient) {
		if n <= c.maxBatch {
			t.Fatalf("%d ops fit one chunk of %d; the batch must span several", n, c.maxBatch)
		}
		post := newPost()
		ops := make([]BatchLike, n)
		for i, tok := range tokens {
			ops[i] = BatchLike{Token: tok, IP: "192.0.2.1"}
		}
		for i, err := range c.LikeBatch(context.Background(), post.ID, ops) {
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}
