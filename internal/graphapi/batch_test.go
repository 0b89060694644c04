package graphapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/oauthsim"
	"repro/internal/socialgraph"
)

func postBatch(t *testing.T, srvURL, token, batchJSON string) []batchResult {
	t.Helper()
	form := url.Values{"access_token": {token}, "batch": {batchJSON}}
	resp, err := http.PostForm(srvURL+"/batch", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var results []batchResult
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	return results
}

func TestBatchMixedOperations(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	post2, err := f.graph.CreatePost(f.post.AuthorID, "second post", socialgraph.WriteMeta{At: t0})
	if err != nil {
		t.Fatal(err)
	}
	batch := fmt.Sprintf(`[
		{"method":"GET","relative_url":"me"},
		{"method":"POST","relative_url":"%s/likes"},
		{"method":"POST","relative_url":"%s/likes"},
		{"method":"POST","relative_url":"%s/comments","body":"message=batched+comment"},
		{"method":"GET","relative_url":"%s/likes"}
	]`, f.post.ID, post2.ID, f.post.ID, f.post.ID)
	results := postBatch(t, srv.URL, tok, batch)
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Code != http.StatusOK {
			t.Fatalf("op %d: code %d body %s", i, r.Code, r.Body)
		}
	}
	// The writes landed.
	if f.graph.LikeCount(f.post.ID) != 1 || f.graph.LikeCount(post2.ID) != 1 {
		t.Fatal("batched likes missing")
	}
	comments := f.graph.Comments(f.post.ID)
	if len(comments) != 1 || comments[0].Message != "batched comment" {
		t.Fatalf("batched comment = %+v", comments)
	}
	// The final read sees the like placed earlier in the same batch.
	var readBody struct {
		Data []struct {
			ID string `json:"id"`
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(results[4].Body), &readBody); err != nil {
		t.Fatal(err)
	}
	if len(readBody.Data) != 1 || readBody.Data[0].ID != f.user.ID {
		t.Fatalf("batched read = %s", results[4].Body)
	}
}

func TestBatchPartialFailures(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	batch := fmt.Sprintf(`[
		{"method":"POST","relative_url":"%s/likes"},
		{"method":"POST","relative_url":"%s/likes"},
		{"method":"GET","relative_url":"me"}
	]`, f.post.ID, f.post.ID)
	results := postBatch(t, srv.URL, tok, batch)
	if results[0].Code != http.StatusOK {
		t.Fatalf("first like failed: %+v", results[0])
	}
	// The duplicate like fails with an embedded error envelope while the
	// rest of the batch proceeds.
	if results[1].Code != http.StatusBadRequest {
		t.Fatalf("duplicate like code = %d", results[1].Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal([]byte(results[1].Body), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeDuplicate {
		t.Fatalf("embedded error = %+v", env)
	}
	if results[2].Code != http.StatusOK {
		t.Fatalf("trailing op failed: %+v", results[2])
	}
}

func TestBatchValidation(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	for _, batch := range []string{"", "not-json", "[]"} {
		form := url.Values{"access_token": {tok}, "batch": {batch}}
		resp, err := http.PostForm(srv.URL+"/batch", form)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("batch %q status = %d", batch, resp.StatusCode)
		}
	}
	// Over the 50-op cap.
	big := "["
	for i := 0; i < 51; i++ {
		if i > 0 {
			big += ","
		}
		big += `{"method":"GET","relative_url":"me"}`
	}
	big += "]"
	form := url.Values{"access_token": {tok}, "batch": {big}}
	resp, err := http.PostForm(srv.URL+"/batch", form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d", resp.StatusCode)
	}
	_ = f
}

func TestBatchPerOpToken(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tokA := httpToken(t, f, srv)
	// A second member with their own token inside the op body.
	other := f.graph.CreateAccount("other-member", "IN", t0)
	resB, err := f.oauth.Authorize(authorizeReqFor(f, other.ID))
	if err != nil {
		t.Fatal(err)
	}
	batch := fmt.Sprintf(`[
		{"method":"POST","relative_url":"%s/likes"},
		{"method":"POST","relative_url":"%s/likes","body":"access_token=%s"}
	]`, f.post.ID, f.post.ID, resB.AccessToken)
	results := postBatch(t, srv.URL, tokA, batch)
	for i, r := range results {
		if r.Code != http.StatusOK {
			t.Fatalf("op %d: %+v", i, r)
		}
	}
	likes := f.graph.Likes(f.post.ID)
	if len(likes) != 2 {
		t.Fatalf("likes = %d", len(likes))
	}
	if likes[0].AccountID == likes[1].AccountID {
		t.Fatal("per-op token ignored")
	}
}

func TestDebugTokenIntrospection(t *testing.T) {
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)

	get := func(params url.Values) (int, map[string]any) {
		resp, err := http.Get(srv.URL + "/debug_token?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Data map[string]any `json:"data"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body.Data
	}

	status, data := get(url.Values{
		"client_id":     {f.app.ID},
		"client_secret": {f.app.Secret},
		"input_token":   {tok},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if data["is_valid"] != true || data["user_id"] != f.user.ID || data["app_id"] != f.app.ID {
		t.Fatalf("data = %+v", data)
	}

	// Invalidated token introspects as invalid.
	f.oauth.Invalidate(tok, "swept")
	_, data = get(url.Values{
		"client_id":     {f.app.ID},
		"client_secret": {f.app.Secret},
		"input_token":   {tok},
	})
	if data["is_valid"] != false {
		t.Fatalf("swept token data = %+v", data)
	}

	// Wrong secret is refused.
	status, _ = get(url.Values{
		"client_id":     {f.app.ID},
		"client_secret": {"nope"},
		"input_token":   {tok},
	})
	if status != http.StatusForbidden {
		t.Fatalf("wrong secret status = %d", status)
	}
}

func TestHTTPDialogEchoesState(t *testing.T) {
	f, srv := newHTTPFixture(t)
	q := url.Values{}
	q.Set("client_id", f.app.ID)
	q.Set("redirect_uri", f.app.RedirectURI)
	q.Set("response_type", "token")
	q.Set("scope", "publish_actions")
	q.Set("account_id", f.user.ID)
	q.Set("state", "csrf-nonce-123")
	resp, err := noRedirect().Get(srv.URL + "/dialog/oauth?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	loc, _ := url.Parse(resp.Header.Get("Location"))
	frag, _ := url.ParseQuery(loc.Fragment)
	if frag.Get("state") != "csrf-nonce-123" {
		t.Fatalf("state = %q", frag.Get("state"))
	}
}

// authorizeReqFor builds an implicit-flow request for an arbitrary
// account on the fixture's app.
func authorizeReqFor(f *fixture, accountID string) oauthsim.AuthorizeRequest {
	return oauthsim.AuthorizeRequest{
		AppID:        f.app.ID,
		RedirectURI:  f.app.RedirectURI,
		ResponseType: oauthsim.ResponseToken,
		Scopes:       []string{"publish_actions"},
		AccountID:    accountID,
	}
}

func TestBatchLikeFastPathSourceIP(t *testing.T) {
	// A homogeneous all-likes batch takes the native LikeBatch lowering;
	// per-op source_ip must survive it and land in the stored like's
	// attribution, falling back to the transport IP when absent.
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	other := f.graph.CreateAccount("fastpath-member", "IN", t0)
	resB, err := f.oauth.Authorize(authorizeReqFor(f, other.ID))
	if err != nil {
		t.Fatal(err)
	}
	batch := fmt.Sprintf(`[
		{"method":"POST","relative_url":"%s/likes","source_ip":"198.51.100.7"},
		{"method":"POST","relative_url":"%s/likes","body":"access_token=%s"}
	]`, f.post.ID, f.post.ID, resB.AccessToken)
	results := postBatch(t, srv.URL, tok, batch)
	for i, r := range results {
		if r.Code != http.StatusOK {
			t.Fatalf("op %d: %+v", i, r)
		}
	}
	likes := f.graph.Likes(f.post.ID)
	if len(likes) != 2 {
		t.Fatalf("likes = %d", len(likes))
	}
	if likes[0].SourceIP != "198.51.100.7" {
		t.Fatalf("per-op source_ip ignored: %q", likes[0].SourceIP)
	}
	if likes[1].SourceIP == "198.51.100.7" {
		t.Fatal("op without source_ip inherited a sibling's IP")
	}
}

func TestBatchLikesAcrossObjectsFallsBack(t *testing.T) {
	// All-POST-likes batches spanning different objects don't fit the
	// single-object LikeBatch lowering; they must still succeed via the
	// per-op replay path with identical results.
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	post2, err := f.graph.CreatePost(f.post.AuthorID, "other post", socialgraph.WriteMeta{At: t0})
	if err != nil {
		t.Fatal(err)
	}
	batch := fmt.Sprintf(`[
		{"method":"POST","relative_url":"%s/likes"},
		{"method":"POST","relative_url":"%s/likes"}
	]`, f.post.ID, post2.ID)
	results := postBatch(t, srv.URL, tok, batch)
	for i, r := range results {
		if r.Code != http.StatusOK {
			t.Fatalf("op %d: %+v", i, r)
		}
	}
	if f.graph.LikeCount(f.post.ID) != 1 || f.graph.LikeCount(post2.ID) != 1 {
		t.Fatal("cross-object batch lost a like")
	}
}

func TestBatchBodyBounded(t *testing.T) {
	// A /batch body larger than the provider's op cap can hold is refused
	// with the invalid-param envelope before any op runs — even when the
	// batch itself is a valid like within the op cap.
	f, srv := newHTTPFixture(t)
	tok := httpToken(t, f, srv)
	limit := (f.api.Provider().Limits().MaxBatchOps + 1) * maxBatchOpBytes
	form := url.Values{
		"access_token": {tok},
		"batch":        {fmt.Sprintf(`[{"method":"POST","relative_url":"%s/likes"}]`, f.post.ID)},
		"pad":          {strings.Repeat("x", limit)},
	}
	resp, err := http.PostForm(srv.URL+"/batch", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("oversized body status = %d, want 4xx", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeInvalidParam {
		t.Fatalf("error envelope = %+v, want code %d", env, CodeInvalidParam)
	}
	if n := f.graph.LikeCount(f.post.ID); n != 0 {
		t.Fatalf("oversized batch applied %d likes", n)
	}

	// The same batch without the padding goes through.
	delete(form, "pad")
	if results := postBatch(t, srv.URL, tok, form.Get("batch")); results[0].Code != http.StatusOK {
		t.Fatalf("bounded batch: %+v", results[0])
	}
	if n := f.graph.LikeCount(f.post.ID); n != 1 {
		t.Fatalf("bounded batch applied %d likes, want 1", n)
	}
}
