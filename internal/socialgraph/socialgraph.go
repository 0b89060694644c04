// Package socialgraph implements the social network substrate the rest of
// the reproduction runs on: accounts, posts, likes, comments, and pages,
// held in a concurrency-safe in-memory store with a full activity log.
//
// The store models the Facebook semantics the paper's measurements depend
// on:
//
//   - a like is idempotent per (account, object) — repeated likes by the
//     same account do not inflate counts, which is why collusion networks
//     must sample *distinct* member tokens per request and why honeypot
//     milking converges on the true membership (Figure 4);
//   - every write is attributed to the application and source IP that
//     performed it, which is what the Section 6 countermeasures key on;
//   - each account has an activity log of its outgoing actions, which the
//     honeypots crawl to observe how collusion networks spend their tokens
//     (Table 4 "outgoing activities", Figure 7).
//
// The store is lock-striped: state is partitioned across power-of-two
// shards keyed by the FNV-1a hash of each object's primary ID, so
// simulated Graph API traffic from many goroutines (the parallel milking
// driver, the organic background workload) scales with cores instead of
// serializing on one mutex. See shard.go for the routing and lock-ordering
// rules, and reference_test.go for the single-lock oracle the differential
// tests check this implementation against.
package socialgraph

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// Errors returned by store operations.
var (
	ErrNotFound         = errors.New("socialgraph: object not found")
	ErrSuspended        = errors.New("socialgraph: account suspended")
	ErrAlreadyLiked     = errors.New("socialgraph: already liked")
	ErrNotLiked         = errors.New("socialgraph: not liked")
	ErrEmptyMessage     = errors.New("socialgraph: empty message")
	ErrInvalidReference = errors.New("socialgraph: invalid object reference")
)

// StoreError is the typed error the write paths return: one of the
// sentinels above plus the role of the ID the check concerned. It
// replaces the per-rejection fmt.Errorf("%q: %w") constructions, which
// allocated on every denial — a collusion burst against a mostly-liked
// object is rejection-heavy, and so is every post-intervention scale
// run. The common denial kinds are returned as the preallocated values
// below, so rejecting an op allocates nothing; errors.Is dispatch keeps
// working through Unwrap.
type StoreError struct {
	Role string // which ID failed the check: "liker", "commenter", "object", ...
	ID   string // the offending ID; empty on the preallocated hot-path values
	Err  error  // the sentinel
}

// Error implements error. The preallocated values render lazily and
// without the ID ("liker: socialgraph: account suspended"); errors built
// on cold paths keep the quoted-ID form.
func (e *StoreError) Error() string {
	if e.ID == "" {
		return e.Role + ": " + e.Err.Error()
	}
	return fmt.Sprintf("%s %q: %v", e.Role, e.ID, e.Err)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *StoreError) Unwrap() error { return e.Err }

// Preallocated denial values for the hot write paths. One value per
// (role, sentinel) pair that a like, unlike, or comment can reject with;
// returning them is allocation-free (pinned by TestAllocGateDenialPaths).
var (
	errLikerNotFound      = &StoreError{Role: "liker", Err: ErrNotFound}
	errLikerSuspended     = &StoreError{Role: "liker", Err: ErrSuspended}
	errAlreadyLiked       = &StoreError{Role: "like", Err: ErrAlreadyLiked}
	errNotLiked           = &StoreError{Role: "like", Err: ErrNotLiked}
	errObjectInvalid      = &StoreError{Role: "object", Err: ErrInvalidReference}
	errCommenterNotFound  = &StoreError{Role: "commenter", Err: ErrNotFound}
	errCommenterSuspended = &StoreError{Role: "commenter", Err: ErrSuspended}
	errPostNotFound       = &StoreError{Role: "post", Err: ErrNotFound}
)

// Account is a user account.
type Account struct {
	ID        string
	Name      string
	Country   string
	CreatedAt time.Time
	Suspended bool
}

// Page is a fan page that can own posts and receive likes.
type Page struct {
	ID        string
	Name      string
	OwnerID   string
	CreatedAt time.Time
}

// Like records one like on an object.
type Like struct {
	AccountID string
	ObjectID  string
	AppID     string // application whose token performed the like ("" = first-party)
	SourceIP  string // IP the Graph API request originated from
	At        time.Time
}

// Comment is a comment on a post.
type Comment struct {
	ID        string
	PostID    string
	AccountID string
	Message   string
	AppID     string
	SourceIP  string
	At        time.Time
}

// Post is a status update on an account's or page's timeline.
type Post struct {
	ID        string
	AuthorID  string // account or page ID
	Message   string
	CreatedAt time.Time
}

// Verb enumerates activity-log actions.
type Verb string

// Activity verbs.
const (
	VerbPost    Verb = "post"
	VerbLike    Verb = "like"
	VerbComment Verb = "comment"
)

// Activity is one entry of an account's outgoing activity log.
type Activity struct {
	ActorID  string
	Verb     Verb
	ObjectID string // post/comment ID acted on or created
	TargetID string // owner (account or page) of the object acted on
	AppID    string
	SourceIP string
	At       time.Time
}

// Store is the in-memory social graph, lock-striped across shards. The
// zero value is not usable; use New or NewWithShards. Store is safe for
// concurrent use, and when driven sequentially is observationally
// identical to the single-lock reference implementation (enforced by the
// differential tests).
type Store struct {
	minter     *ids.Minter
	shards     []*shard
	mask       uint32
	contention *metrics.ShardContention

	// retentionNanos is the analytics window in nanoseconds; 0 (the
	// default) means infinite retention and makes sweeps no-ops.
	retentionNanos atomic.Int64
	retention      *metrics.RetentionCounters
}

// New returns an empty Store with the default GOMAXPROCS-scaled shard
// count.
func New() *Store { return NewWithShards(0) }

// NewWithShards returns an empty Store striped across n shards. n is
// rounded up to a power of two and clamped to [1, 1024]; n <= 0 selects
// the default.
func NewWithShards(n int) *Store { return NewSized(n, 0) }

// NewSized returns an empty Store striped across n shards with its
// account-keyed maps presized for accountHint accounts. The scale
// workload passes the target population so building a multi-million
// account graph does not pay for incremental map rehashing.
func NewSized(n, accountHint int) *Store {
	if n <= 0 {
		n = defaultShardCount()
	}
	n = nextPowerOfTwo(n)
	perShard := 0
	if accountHint > 0 {
		perShard = accountHint / n
	}
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = newShardSized(perShard)
	}
	return &Store{
		minter:     ids.NewMinter(),
		shards:     shards,
		mask:       uint32(n - 1),
		contention: metrics.NewShardContention(n),
		retention:  &metrics.RetentionCounters{},
	}
}

// ShardCount returns the number of lock stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

// Contention returns the store's per-shard lock-pressure counters. Every
// lock acquisition is recorded along with whether it had to wait, so the
// experiment harness can report whether the stripe count matches the
// offered load.
func (s *Store) Contention() *metrics.ShardContention { return s.contention }

// CreateAccount registers a new account and returns it.
func (s *Store) CreateAccount(name, country string, at time.Time) Account {
	a := &Account{
		ID:        s.minter.Next(ids.KindAccount),
		Name:      name,
		Country:   country,
		CreatedAt: at,
	}
	sh := s.lock(a.ID)
	sh.accounts[a.ID] = a
	sh.mu.Unlock()
	return *a
}

// Account returns the account with the given ID.
func (s *Store) Account(id string) (Account, error) {
	sh := s.rlock(id)
	defer sh.mu.RUnlock()
	a, ok := sh.accounts[id]
	if !ok {
		return Account{}, fmt.Errorf("account %q: %w", id, ErrNotFound)
	}
	return *a, nil
}

// AccountCount returns the number of registered accounts.
func (s *Store) AccountCount() int {
	n := 0
	for i := range s.shards {
		sh := s.rlockIdx(i)
		n += len(sh.accounts)
		sh.mu.RUnlock()
	}
	return n
}

// SetSuspended marks an account suspended or reinstated. Suspended accounts
// cannot perform writes.
func (s *Store) SetSuspended(id string, suspended bool) error {
	sh := s.lock(id)
	defer sh.mu.Unlock()
	a, ok := sh.accounts[id]
	if !ok {
		return fmt.Errorf("account %q: %w", id, ErrNotFound)
	}
	a.Suspended = suspended
	return nil
}

// CreatePage registers a fan page owned by an account.
func (s *Store) CreatePage(ownerID, name string, at time.Time) (Page, error) {
	// Existence is a stable property (accounts are never deleted), so the
	// owner check does not need to be atomic with the page insert.
	ownerShard := s.rlock(ownerID)
	_, ok := ownerShard.accounts[ownerID]
	ownerShard.mu.RUnlock()
	if !ok {
		return Page{}, fmt.Errorf("page owner %q: %w", ownerID, ErrNotFound)
	}
	p := &Page{
		ID:        s.minter.Next(ids.KindPage),
		Name:      name,
		OwnerID:   ownerID,
		CreatedAt: at,
	}
	sh := s.lock(p.ID)
	sh.pages[p.ID] = p
	sh.mu.Unlock()
	return *p, nil
}

// Page returns the page with the given ID.
func (s *Store) Page(id string) (Page, error) {
	sh := s.rlock(id)
	defer sh.mu.RUnlock()
	p, ok := sh.pages[id]
	if !ok {
		return Page{}, fmt.Errorf("page %q: %w", id, ErrNotFound)
	}
	return *p, nil
}

// WriteMeta attributes a write to the app and source IP that performed it.
type WriteMeta struct {
	AppID    string
	SourceIP string
	At       time.Time
}

// CreatePost publishes a status update on the author's timeline. The author
// may be an account or a page (pages post via their owner).
//
// The post ID's shard is unknown until the ID is minted, and minting must
// happen only after validation so the ID stream matches the reference
// store; the write is therefore phased — validate, mint, insert the post
// record, then publish it in the author's index and the actor's activity
// log — with the post record inserted first so every ID reachable through
// PostsByAuthor always resolves.
func (s *Store) CreatePost(authorID, message string, meta WriteMeta) (Post, error) {
	if message == "" {
		return Post{}, ErrEmptyMessage
	}
	actor := authorID
	authorShard := s.rlock(authorID)
	if a, ok := authorShard.accounts[authorID]; ok {
		if a.Suspended {
			authorShard.mu.RUnlock()
			return Post{}, fmt.Errorf("author %q: %w", authorID, ErrSuspended)
		}
	} else if p, ok := authorShard.pages[authorID]; ok {
		actor = p.OwnerID
	} else {
		authorShard.mu.RUnlock()
		return Post{}, fmt.Errorf("author %q: %w", authorID, ErrNotFound)
	}
	authorShard.mu.RUnlock()

	post := &Post{
		ID:        s.minter.Next(ids.KindPost),
		AuthorID:  authorID,
		Message:   message,
		CreatedAt: meta.At,
	}
	sh := s.lock(post.ID)
	sh.posts[post.ID] = post
	sh.mu.Unlock()

	sh = s.lock(authorID)
	sh.postsByAuthor[authorID] = append(sh.postsByAuthor[authorID], post.ID)
	sh.mu.Unlock()

	sh = s.lock(actor)
	sh.activityFor(actor).append(&sh.acts, Activity{
		ActorID: actor, Verb: VerbPost, ObjectID: post.ID, TargetID: authorID,
		AppID: meta.AppID, SourceIP: meta.SourceIP, At: meta.At,
	})
	sh.mu.Unlock()
	return *post, nil
}

// Post returns the post with the given ID.
func (s *Store) Post(id string) (Post, error) {
	sh := s.rlock(id)
	defer sh.mu.RUnlock()
	p, ok := sh.posts[id]
	if !ok {
		return Post{}, fmt.Errorf("post %q: %w", id, ErrNotFound)
	}
	return *p, nil
}

// PostsByAuthor returns the author's posts in creation order.
func (s *Store) PostsByAuthor(authorID string) []Post {
	// Snapshot the slice header, not a copy: the index is append-only and
	// entries [0, len) are never rewritten in place, so the captured view
	// stays valid after the lock drops even if concurrent posts grow (or
	// reallocate) the index past our length.
	sh := s.rlock(authorID)
	idsList := sh.postsByAuthor[authorID]
	sh.mu.RUnlock()
	if len(idsList) == 0 {
		return nil
	}
	out := make([]Post, 0, len(idsList))
	for _, id := range idsList {
		psh := s.rlock(id)
		if p, ok := psh.posts[id]; ok {
			out = append(out, *p)
		}
		psh.mu.RUnlock()
	}
	return out
}

// AddLike records a like by accountID on the object (post or page).
// Likes are idempotent: liking an object twice returns ErrAlreadyLiked.
func (s *Store) AddLike(accountID, objectID string, meta WriteMeta) error {
	return s.addLikePair(accountID, objectID, meta)
}

// addLikePair takes the liker's and object's stripes in ascending index
// order, applies the like, and releases in reverse. The whole scope is
// inline (no unlock closure): lockOrdered's returned func forced a heap
// allocation per like, which is pure overhead on the hottest write path.
//
//collusionvet:lockorder
func (s *Store) addLikePair(accountID, objectID string, meta WriteMeta) error {
	ai := s.shardIndex(accountID)
	oi := s.shardIndex(objectID)
	lo, hi := ai, oi
	if lo > hi {
		lo, hi = hi, lo
	}
	s.lockIdx(lo)
	if hi != lo {
		s.lockIdx(hi)
	}
	err := likeLocked(s.shards[ai], s.shards[oi], accountID, objectID, meta)
	if hi != lo {
		s.shards[hi].mu.Unlock()
	}
	s.shards[lo].mu.Unlock()
	return err
}

// likeLocked validates and applies one like. The caller must hold the
// write locks of both shards; AddLike and AddLikeBatch share this core so
// batched and sequential likes have identical semantics by construction.
//
// The success path is allocation-free at steady state: the like history
// and its chunks come from the shard free lists, and the activity entry
// lands in a pooled chunk (pinned by TestAllocGateAddLikeBatchSteadyState).
// Denials return the preallocated StoreError values.
//
//collusionvet:locked
func likeLocked(acctShard, objShard *shard, accountID, objectID string, meta WriteMeta) error {
	a, ok := acctShard.accounts[accountID]
	if !ok {
		return errLikerNotFound
	}
	if a.Suspended {
		return errLikerSuspended
	}
	targetID, err := ownerOfShard(objShard, objectID)
	if err != nil {
		return err
	}
	h := objShard.likeHistoryFor(objectID)
	if _, dup := h.set[accountID]; dup {
		return errAlreadyLiked
	}
	// Store the account record's own ID string so the edge and the like
	// retain the canonical heap string, not a caller-transient copy.
	h.set[a.ID] = Like{
		AccountID: a.ID, ObjectID: objectID,
		AppID: meta.AppID, SourceIP: meta.SourceIP, At: meta.At,
	}
	seq := objShard.likeSeq[objectID]
	objShard.likeSeq[objectID] = seq + 1
	h.order.append(&objShard.edges, edgeRef{seq: seq, id: a.ID})
	acctShard.activityFor(a.ID).append(&acctShard.acts, Activity{
		ActorID: a.ID, Verb: VerbLike, ObjectID: objectID, TargetID: targetID,
		AppID: meta.AppID, SourceIP: meta.SourceIP, At: meta.At,
	})
	return nil
}

// RemoveLike deletes a like, as Facebook did when purging fake likes.
// Removal shifts entries only within the edge's own chunk — the chunked
// list never copies the tail the way the old slice splice did — and an
// object whose last like is removed retires its whole history to the
// shard free list.
func (s *Store) RemoveLike(accountID, objectID string) error {
	sh := s.lock(objectID)
	defer sh.mu.Unlock()
	h, ok := sh.likes[objectID]
	if !ok {
		return errNotLiked
	}
	if _, liked := h.set[accountID]; !liked {
		return errNotLiked
	}
	delete(h.set, accountID)
	removeEdge(&h.order, &sh.edges, accountID)
	if len(h.set) == 0 {
		sh.retireLikeHistory(objectID, h)
	}
	return nil
}

// Likes returns the likes on an object in arrival order, sized and
// filled in one pass over the chunked history.
func (s *Store) Likes(objectID string) []Like {
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	h, ok := sh.likes[objectID]
	if !ok {
		return nil
	}
	out := make([]Like, 0, h.order.total)
	for c := h.order.head; c != nil; c = c.next {
		for i := 0; i < c.n; i++ {
			if l, ok := h.set[c.buf[i].id]; ok {
				out = append(out, l)
			}
		}
	}
	return out
}

// LikeCount returns the number of likes on an object.
func (s *Store) LikeCount(objectID string) int {
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	if h, ok := sh.likes[objectID]; ok {
		return len(h.set)
	}
	return 0
}

// HasLiked reports whether the account has liked the object.
func (s *Store) HasLiked(accountID, objectID string) bool {
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	h, ok := sh.likes[objectID]
	if !ok {
		return false
	}
	_, liked := h.set[accountID]
	return liked
}

// AddComment records a comment on a post. Comment records are co-located
// with their post's shard, so crawling a post's comments touches one
// stripe.
func (s *Store) AddComment(accountID, postID, message string, meta WriteMeta) (Comment, error) {
	if message == "" {
		return Comment{}, ErrEmptyMessage
	}
	return s.addCommentPair(accountID, postID, message, meta)
}

// addCommentPair is AddComment's lock scope: commenter and post stripes
// taken in ascending index order, inline like addLikePair.
//
//collusionvet:lockorder
func (s *Store) addCommentPair(accountID, postID, message string, meta WriteMeta) (Comment, error) {
	ai := s.shardIndex(accountID)
	pi := s.shardIndex(postID)
	lo, hi := ai, pi
	if lo > hi {
		lo, hi = hi, lo
	}
	s.lockIdx(lo)
	if hi != lo {
		s.lockIdx(hi)
	}
	c, err := s.commentLocked(s.shards[ai], s.shards[pi], accountID, postID, message, meta)
	if hi != lo {
		s.shards[hi].mu.Unlock()
	}
	s.shards[lo].mu.Unlock()
	return c, err
}

// commentLocked validates and applies one comment under both stripe
// locks. The comment record is drawn from the post shard's pool (sweeps
// refill it); the ID is minted only after validation so the ID stream
// matches the reference store.
//
//collusionvet:locked
func (s *Store) commentLocked(acctShard, postShard *shard, accountID, postID, message string, meta WriteMeta) (Comment, error) {
	a, ok := acctShard.accounts[accountID]
	if !ok {
		return Comment{}, errCommenterNotFound
	}
	if a.Suspended {
		return Comment{}, errCommenterSuspended
	}
	post, ok := postShard.posts[postID]
	if !ok {
		return Comment{}, errPostNotFound
	}
	c := postShard.newComment()
	c.ID = s.minter.Next(ids.KindComment)
	c.PostID = postID
	c.AccountID = a.ID
	c.Message = message
	c.AppID = meta.AppID
	c.SourceIP = meta.SourceIP
	c.At = meta.At
	postShard.comments[c.ID] = c
	seq := postShard.commentSeq[postID]
	postShard.commentSeq[postID] = seq + 1
	postShard.commentOrderFor(postID).append(&postShard.edges, edgeRef{seq: seq, id: c.ID})
	acctShard.activityFor(a.ID).append(&acctShard.acts, Activity{
		ActorID: a.ID, Verb: VerbComment, ObjectID: c.ID, TargetID: post.AuthorID,
		AppID: meta.AppID, SourceIP: meta.SourceIP, At: meta.At,
	})
	return *c, nil
}

// Comments returns the comments on a post in creation order.
func (s *Store) Comments(postID string) []Comment {
	sh := s.rlock(postID)
	defer sh.mu.RUnlock()
	l, ok := sh.commentOrder[postID]
	if !ok {
		return nil
	}
	out := make([]Comment, 0, l.total)
	for c := l.head; c != nil; c = c.next {
		for i := 0; i < c.n; i++ {
			if rec, ok := sh.comments[c.buf[i].id]; ok {
				out = append(out, *rec)
			}
		}
	}
	return out
}

// ActivityLog returns the account's outgoing activity in chronological
// (insertion) order, sized and filled in one pass over the chunks.
func (s *Store) ActivityLog(accountID string) []Activity {
	sh := s.rlock(accountID)
	defer sh.mu.RUnlock()
	l, ok := sh.activity[accountID]
	if !ok {
		return nil
	}
	out := make([]Activity, 0, l.total)
	for c := l.head; c != nil; c = c.next {
		out = append(out, c.buf[:c.n]...)
	}
	return out
}

// ActivitySince returns the account's outgoing activity at or after t.
func (s *Store) ActivitySince(accountID string, t time.Time) []Activity {
	sh := s.rlock(accountID)
	defer sh.mu.RUnlock()
	l, ok := sh.activity[accountID]
	if !ok {
		return nil
	}
	var out []Activity
	for c := l.head; c != nil; c = c.next {
		for i := 0; i < c.n; i++ {
			if !c.buf[i].At.Before(t) {
				out = append(out, c.buf[i])
			}
		}
	}
	return out
}

// ownerOfShard resolves the owner (account or page) of a likeable object.
// All candidate records live in the object's own shard, which the caller
// must hold.
//
//collusionvet:locked
func ownerOfShard(sh *shard, objectID string) (string, error) {
	if p, ok := sh.posts[objectID]; ok {
		return p.AuthorID, nil
	}
	if _, ok := sh.pages[objectID]; ok {
		return objectID, nil
	}
	if _, ok := sh.accounts[objectID]; ok {
		// Liking a profile is modelled as liking the account object itself
		// (the paper observes honeypots liking owners' profile pictures).
		return objectID, nil
	}
	return "", errObjectInvalid
}

// OwnerOf resolves the owner of a likeable object.
func (s *Store) OwnerOf(objectID string) (string, error) {
	sh := s.rlock(objectID)
	defer sh.mu.RUnlock()
	return ownerOfShard(sh, objectID)
}

// Stats summarises store contents; used by experiment reports.
type Stats struct {
	Accounts, Pages, Posts, Comments, Likes int
}

// Stats returns aggregate counts composed from per-shard snapshots.
func (s *Store) Stats() Stats {
	var st Stats
	for i := range s.shards {
		sh := s.rlockIdx(i)
		st.Accounts += len(sh.accounts)
		st.Pages += len(sh.pages)
		st.Posts += len(sh.posts)
		st.Comments += len(sh.comments)
		for _, h := range sh.likes {
			st.Likes += len(h.set)
		}
		sh.mu.RUnlock()
	}
	return st
}

// AccountIDs returns all account IDs in sorted order; used by tests and
// deterministic sampling.
func (s *Store) AccountIDs() []string {
	var out []string
	for i := range s.shards {
		sh := s.rlockIdx(i)
		for id := range sh.accounts {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}
