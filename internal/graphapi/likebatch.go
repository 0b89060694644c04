package graphapi

import (
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/socialgraph"
)

// The like pipeline. Like and LikeBatch both run likeOps; Like is a
// one-op batch under its own graphapi.like root span.
//
// The invariant that may not move: every countermeasure sees a batch
// exactly as it would see N sequential calls. Each op is authenticated on
// its own token and the policy chain is evaluated once per op with that
// op's token, IP, and ASN, so rate limiters and SynchroTrap accumulate
// identical per-token/per-IP counts (Figure 5 dynamics are built on
// those counts). Only the store write is coalesced — one
// AddLikeBatchInto for every admitted op.

// batchScratch is likeOps' working set: the apply queue and the store's
// write-error slice, each with room for every op. LikeBatch takes it
// from scratchPool; Like passes one-op arrays on its stack, so a single
// like allocates nothing even where the pool drops values (the race
// detector drops a quarter of Puts).
type batchScratch struct {
	apply     []socialgraph.LikeOp
	writeErrs []error
}

// scratchPool recycles batchScratch values. A sync.Pool (unlike the
// store's shard-local free lists) is the right shape here: batches
// arrive on arbitrary goroutines, and the GC occasionally reclaiming an
// idle scratch only costs a re-allocation.
var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getScratch returns pooled scratch with room for n ops.
func getScratch(n int) *batchScratch {
	s := scratchPool.Get().(*batchScratch)
	if len(s.apply) < n {
		s.apply = make([]socialgraph.LikeOp, n)
		s.writeErrs = make([]error, n)
	}
	return s
}

// putScratch clears the scratch's pointer-bearing state (tokens, app IDs,
// and write errors must not outlive the call in a pool) and recycles it.
func putScratch(s *batchScratch) {
	clear(s.apply)
	clear(s.writeErrs)
	scratchPool.Put(s)
}

// BatchLikeOp is one like in a batch: the op's bearer token, its
// app-secret proof, and the source IP the action originates from.
type BatchLikeOp struct {
	AccessToken    string
	AppSecretProof string
	SourceIP       string
}

// LikeBatch publishes one like on objectID per op and returns one error
// per op, aligned by index (nil = delivered). Per-op request counters and
// latency histograms are recorded exactly as N Like calls would record
// them; tracing differs only in shape (one sampled graphapi.like_batch
// root, child spans sampled for the first op only).
func (a *API) LikeBatch(ctx context.Context, objectID string, ops []BatchLikeOp) []error {
	errs := make([]error, len(ops))
	if len(ops) == 0 {
		return errs
	}
	start := a.clock.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := a.obs.T().StartSpanAt(ctx, "graphapi.like_batch", start)
	if span != nil {
		span.SetAttr("provider", a.provName)
		span.SetAttr("object", objectID)
		span.SetAttr("ops", strconv.Itoa(len(ops)))
	}
	as := a.allocs.Begin(ctx, "graphapi.like_batch")
	scratch := getScratch(len(ops))
	a.likeOps(ctx, objectID, ops, errs, start, *scratch)
	putScratch(scratch)
	as.End(len(ops))
	end := a.clock.Now()
	if span != nil {
		span.SetAttr("code", "0")
		span.EndAt(end)
	}
	if a.obs != nil {
		// The exact per-op series N sequential Like calls would record.
		secs := end.Sub(start).Seconds()
		for _, err := range errs {
			a.record(opLike, secs, err)
		}
	}
	return errs
}

// likeOps is the like pipeline: it authenticates and policy-checks every
// op in order, then applies everything the chain admitted in one store
// call, writing one error per op into errs (aligned with ops, and nil on
// entry). Op 0 runs under ctx, so its oauth.validate and defense.chain
// spans join the caller's trace; the rest run unsampled. The unsampled
// context is only derived for a second op — deriving it allocates.
func (a *API) likeOps(ctx context.Context, objectID string, ops []BatchLikeOp, errs []error, start time.Time, scratch batchScratch) {
	opCtx := ctx
	n := 0 // ops admitted so far: scratch.apply[:n]
	for i, op := range ops {
		if i == 1 {
			opCtx = obs.UnsampledContext(ctx)
		}
		cc := CallContext{AccessToken: op.AccessToken, AppSecretProof: op.AppSecretProof, SourceIP: op.SourceIP}
		req, err := a.authenticate(opCtx, cc, VerbLike, a.scopePublish, start)
		if err != nil {
			errs[i] = err
			continue
		}
		req.ObjectID = objectID
		if d := a.evaluate(opCtx, &req); !d.Allow {
			errs[i] = a.denialError(d)
			continue
		}
		scratch.apply[n] = socialgraph.LikeOp{
			AccountID: req.Token.AccountID,
			ObjectID:  objectID,
			Meta:      socialgraph.WriteMeta{AppID: req.App.ID, SourceIP: op.SourceIP, At: req.At},
		}
		n++
	}
	if n == 0 {
		return
	}
	_, span := a.obs.T().StartSpanAt(ctx, "shard.apply", start)
	if span != nil {
		// One append: the span's attrs slice is allocated exactly once.
		span.SetAttr2("shard", strconv.Itoa(a.graph.ShardIndexOf(objectID)), "ops", strconv.Itoa(n))
	}
	as := a.allocs.Begin(ctx, "shard.apply")
	writeErrs := scratch.writeErrs[:n]
	a.graph.AddLikeBatchInto(scratch.apply[:n], writeErrs)
	as.End(n)
	span.EndAt(start)
	// The admitted ops are exactly those whose error is still nil; they
	// were queued in op order, so the write errors map back in order.
	j := 0
	for i := range ops {
		if errs[i] == nil {
			errs[i] = a.likeWriteError(writeErrs[j], objectID)
			j++
		}
	}
}
