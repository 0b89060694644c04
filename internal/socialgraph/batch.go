package socialgraph

import "slices"

// The like apply. Every like the store takes goes through
// AddLikeBatchInto — AddLike is a one-op batch. A collusion-network
// burst is hundreds of likes on one object; ops are split into maximal
// consecutive runs whose objects share a stripe, and each run is applied
// under a single multi-stripe lock scope (the object stripe plus every
// liker's account stripe, acquired in ascending index order exactly like
// lockOrdered), so a burst costs one lock scope per run instead of one
// per like. Because runs are consecutive, the total apply order is the
// ops' order, so per-op errors and final state — including intra-batch
// duplicates — match N sequential AddLike calls exactly.

// LikeOp is one like in a batch: AccountID likes ObjectID, attributed to
// Meta. Meta is per-op because each action in a delivery burst carries
// its own source IP, and attribution is what the countermeasures key on.
type LikeOp struct {
	AccountID string
	ObjectID  string
	Meta      WriteMeta
}

// AddLikeBatch applies the ops in order and returns one error per op,
// aligned by index (nil = applied). Semantics are identical to calling
// AddLike(op.AccountID, op.ObjectID, op.Meta) for each op in sequence.
func (s *Store) AddLikeBatch(ops []LikeOp) []error {
	errs := make([]error, len(ops))
	s.AddLikeBatchInto(ops, errs)
	return errs
}

// AddLikeBatchInto is AddLikeBatch writing per-op errors into a
// caller-provided slice (len(errs) must be >= len(ops)), so callers that
// pool or stack-allocate their scratch (graphapi's like pipeline,
// AddLike) keep the whole apply allocation-free. Entries [0, len(ops))
// are overwritten.
func (s *Store) AddLikeBatchInto(ops []LikeOp, errs []error) {
	for start := 0; start < len(ops); {
		objIdx := s.shardIndex(ops[start].ObjectID)
		end := start + 1
		for end < len(ops) && s.shardIndex(ops[end].ObjectID) == objIdx {
			end++
		}
		s.applyLikeRun(ops[start:end], errs[start:end], objIdx)
		start = end
	}
}

// applyLikeRun applies one run of likes whose objects live on stripe
// objIdx under a single lock scope: the object stripe plus every liker's
// account stripe, deduplicated and acquired in ascending index order. It
// is the store's only like apply. The scope is held inline (no unlock
// closure, no heap escape), and the stripe set lives in a stack buffer
// for every run of up to 63 likes.
//
//collusionvet:lockorder
func (s *Store) applyLikeRun(run []LikeOp, errs []error, objIdx int) {
	var buf [64]int
	idxs := buf[:0]
	if len(run)+1 > len(buf) {
		idxs = make([]int, 0, len(run)+1)
	}
	idxs = append(idxs, objIdx)
	for i := range run {
		idxs = append(idxs, s.shardIndex(run[i].AccountID))
	}
	slices.Sort(idxs)
	// Compact duplicates in place so each stripe locks exactly once.
	n := 1
	for i := 1; i < len(idxs); i++ {
		if idxs[i] != idxs[n-1] {
			idxs[n] = idxs[i]
			n++
		}
	}
	idxs = idxs[:n]
	for _, i := range idxs {
		s.lockIdx(i)
	}
	objShard := s.shards[objIdx]
	for i := range run {
		op := &run[i]
		errs[i] = likeLocked(s.shards[s.shardIndex(op.AccountID)], objShard, op.AccountID, op.ObjectID, op.Meta)
	}
	for i := len(idxs) - 1; i >= 0; i-- {
		s.shards[idxs[i]].mu.Unlock()
	}
}
