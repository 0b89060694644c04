package main

import (
	"math/rand"
)

// OpKind is the kind of one client op in the api-mixed stream.
type OpKind uint8

const (
	OpLike OpKind = iota
	OpRead
	OpComment
)

// Op is one client op: Actor indexes the token holders; Target indexes
// the hot posts (likes, comments) or the read-only posts (reads).
type Op struct {
	Kind   OpKind
	Actor  int32
	Target int32
}

// StreamConfig shapes the api-mixed op stream.
type StreamConfig struct {
	Ops       int
	Actors    int
	HotPosts  int
	ReadPosts int
	// LikeFrac and ReadFrac set the mix; the rest are comments.
	LikeFrac, ReadFrac float64
	// ZipfS skews like and comment targets toward the first hot posts.
	ZipfS float64
}

// genStream returns the seeded op stream: the same seed gives the same
// stream.
func genStream(cfg StreamConfig, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.HotPosts-1))
	ops := make([]Op, cfg.Ops)
	for i := range ops {
		actor := int32(rng.Intn(cfg.Actors))
		switch r := rng.Float64(); {
		case r < cfg.LikeFrac:
			ops[i] = Op{OpLike, actor, int32(zipf.Uint64())}
		case r < cfg.LikeFrac+cfg.ReadFrac:
			ops[i] = Op{OpRead, actor, int32(rng.Intn(cfg.ReadPosts))}
		default:
			ops[i] = Op{OpComment, actor, int32(zipf.Uint64())}
		}
	}
	return ops
}

// Expect is what a correct platform must answer to a stream.
type Expect struct {
	Likes, Reads, Comments int
	// Distinct is the number of distinct (actor, post) like pairs: the
	// likes that succeed. Every other like is a duplicate refusal.
	Distinct int
}

// Duplicates is the number of like refusals a correct platform gives.
func (e Expect) Duplicates() int { return e.Likes - e.Distinct }

func expect(ops []Op) Expect {
	var e Expect
	seen := make(map[[2]int32]struct{}, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case OpLike:
			e.Likes++
			seen[[2]int32{op.Actor, op.Target}] = struct{}{}
		case OpRead:
			e.Reads++
		case OpComment:
			e.Comments++
		}
	}
	e.Distinct = len(seen)
	return e
}
