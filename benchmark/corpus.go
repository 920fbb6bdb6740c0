package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"approxcode/internal/store"
)

// The seeded generator. Everything the program under test sees — payload
// bytes, segment sizes, Zipf picks, op order, which nodes fail — derives
// from one -seed through labelled sub-streams, so two runs with the same
// seed issue byte-identical inputs in the same order.

// rng is splitmix64: 8 payload bytes per step, which keeps corpus
// generation (hundreds of MiB per set-up) far cheaper than the preload
// it feeds. video.Generate's per-pixel synthesis would dominate set-up.
type rng struct{ s uint64 }

// newRNG derives the sub-stream named label from seed.
func newRNG(seed int64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64()}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) fill(b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.next())
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(b, tail[:])
	}
}

// Object shape (ISSUE "Common geometry"): 8 GOPs of a 30-frame pattern,
// one segment per frame, I frames important.
const (
	gopPattern    = "IBBPBBPBBPBBPBBPBBPBBPBBPBBPBB"
	gopsPerObject = 8
	segsPerGOP    = len(gopPattern)
	segsPerObject = gopsPerObject * segsPerGOP

	sizeI = 24 << 10
	sizeP = 8 << 10
	sizeB = 4 << 10
	// sizeJitter is the half-width of the U[1-j, 1+j] size factor.
	sizeJitter = 0.15
)

func baseSize(kind byte) int {
	switch kind {
	case 'I':
		return sizeI
	case 'P':
		return sizeP
	default:
		return sizeB
	}
}

// object is one generated video object and the bytes a correct store
// must return for it.
type object struct {
	name  string
	segs  []store.Segment
	bytes int64
}

// genObject builds object idx of the corpus for seed. Segment sizes are
// base × U[0.85,1.15], drawn in antithetic pairs per frame kind (one
// segment gets +d, its partner −d), so every object carries exactly the
// nominal byte total: storage_overhead then depends on the code and the
// geometry, not on which seed was drawn.
func genObject(seed int64, idx int) *object {
	r := newRNG(seed, fmt.Sprintf("object/%d", idx))
	o := &object{name: fmt.Sprintf("obj-%04d", idx), segs: make([]store.Segment, segsPerObject)}
	pending := map[byte]int{} // kind -> delta owed to the pair's second half
	for id := 0; id < segsPerObject; id++ {
		kind := gopPattern[id%segsPerGOP]
		base := baseSize(kind)
		d, second := pending[kind]
		if second {
			delete(pending, kind)
			d = -d
		} else {
			d = int(math.Round((2*r.float() - 1) * sizeJitter * float64(base)))
			pending[kind] = d
		}
		data := make([]byte, base+d)
		r.fill(data)
		o.segs[id] = store.Segment{ID: id, Important: kind == 'I', Data: data}
		o.bytes += int64(len(data))
	}
	return o
}

// corpus is the preloaded object set, indexed by Zipf rank (rank 0 is
// the most popular object).
type corpus struct {
	objects []*object
	bytes   int64
}

func genCorpus(seed int64, n int) *corpus {
	c := &corpus{objects: make([]*object, n)}
	for i := range c.objects {
		c.objects[i] = genObject(seed, i)
		c.bytes += c.objects[i].bytes
	}
	return c
}

// digest is the SHA-256 over every object's name, segment flags and
// payload bytes — the identity the same-seed test compares.
func (c *corpus) digest() string {
	h := sha256.New()
	var hdr [9]byte
	for _, o := range c.objects {
		h.Write([]byte(o.name))
		for _, s := range o.segs {
			binary.LittleEndian.PutUint64(hdr[:8], uint64(len(s.Data)))
			hdr[8] = 0
			if s.Important {
				hdr[8] = 1
			}
			h.Write(hdr[:])
			h.Write(s.Data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// zipf draws ranks in [0,n) with P(rank=i) ∝ 1/(i+1)^s by inverting a
// precomputed CDF (math/rand's Zipf needs s > 1 and its own source).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) pick(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

const zipfExponent = 1.1

// opKind names a store entry point.
type opKind uint8

const (
	opPut opKind = iota
	opUpdate
	opGet
	opGetSegment
	opRepair
	// opFail is FailNodes(Obj, Seg): administrative, not a measured op.
	opFail
	numOpKinds
)

var opNames = [numOpKinds]string{"put", "update", "get", "getseg", "repair", "fail"}

// op is one call the benchmark issues: the object's corpus index and,
// for segment ops, the segment id. Name, when set, is the name a Put
// stores the object's bytes under (tcp_mixed puts new objects).
type op struct {
	Kind opKind
	Obj  int
	Seg  int
	Name string
}

func (o op) name(obj *object) string {
	if o.Name != "" {
		return o.Name
	}
	return obj.name
}

// opListDigest hashes an op list, for the same-seed test.
func opListDigest(ops []op) string {
	h := sha256.New()
	var b [17]byte
	for _, o := range ops {
		b[0] = byte(o.Kind)
		binary.LittleEndian.PutUint64(b[1:9], uint64(o.Obj))
		binary.LittleEndian.PutUint64(b[9:17], uint64(o.Seg))
		h.Write(b[:])
		h.Write([]byte(o.Name))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendGOPRun appends the 30 consecutive GetSegment ops of one GOP.
func appendGOPRun(ops []op, obj, gop int) []op {
	for f := 0; f < segsPerGOP; f++ {
		ops = append(ops, op{Kind: opGetSegment, Obj: obj, Seg: gop*segsPerGOP + f})
	}
	return ops
}

// failedPair picks the node pair a degraded_repair cycle fails: one data
// node of the important group (local stripe 0) and one data node of an
// unimportant group, each within its group's local tolerance r=1 so all
// reads stay exact. The pair rotates with the seed and the cycle.
func failedPair(g geometry, seed int64, cycle int) (important, unimportant int) {
	r := newRNG(seed, fmt.Sprintf("fail/%d", cycle))
	important = g.dataNode(0, r.intn(g.code.K))
	unimportant = g.dataNode(1+r.intn(g.code.H-1), r.intn(g.code.K))
	return important, unimportant
}
