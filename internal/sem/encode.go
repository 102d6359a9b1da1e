package sem

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Key is the canonical identity of a configuration. Configurations with
// equal Keys are semantically identical up to heap-address renaming and
// instrumentation history, so exploration merges them.
type Key string

// Fingerprint is a 128-bit hash of a configuration's canonical walk, the
// same walk Encode renders as text. The hash reads the walk as a stream
// of 64-bit words rather than as the Key's bytes: each number is one
// word, each separator byte is one word, and each string is one or more
// words that carry its length (see (*encoder).str). A number sits only
// where the walk's grammar expects one, and separator words never look
// like string words, so the stream decodes back to the walk: two
// configurations have equal streams iff they have equal Keys.
//
// Two 64-bit lanes fold the stream, each with its own multiply-rotate
// round (see (*encoder).word), and are finalized with the splitmix64
// avalanche. A round is a bijection of the lane for a fixed word and of
// the word for a fixed lane, so two streams of equal length that differ
// in exactly one word never collide. No stronger bound is proved. If the
// lanes behaved as independent random functions, n distinct states would
// collide with probability ~n²/2¹²⁹ (≈10⁻²⁰ even at a billion states).
// This is the Holzmann hash-compaction trade: the explorers' fingerprint
// mode keys the visited set by 16 bytes per state instead of the full
// encoding. Equal configurations always have equal fingerprints.
type Fingerprint struct{ Hi, Lo uint64 }

// Zero reports whether f is the zero fingerprint (never produced by
// Fingerprint; usable as a sentinel).
func (f Fingerprint) Zero() bool { return f.Hi == 0 && f.Lo == 0 }

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], f.Hi)
	binary.BigEndian.PutUint64(b[8:], f.Lo)
	const hex = "0123456789abcdef"
	out := make([]byte, 32)
	for i, c := range b {
		out[2*i] = hex[c>>4]
		out[2*i+1] = hex[c&15]
	}
	return string(out)
}

// Encode produces the canonical Key:
//
//   - processes in path order: status, frames (function, return dest,
//     block positions, local values);
//   - globals in order;
//   - heap objects in FIRST-REFERENCE order over a deterministic scan,
//     renamed to dense canonical ids — two configurations that differ only
//     in allocation numbering encode identically;
//   - unreachable heap objects are skipped entirely (garbage cannot
//     influence any future behaviour), giving state-identity GC for free;
//   - procedure strings, instance counters, and allocation counters are
//     excluded: they are instrumentation, not semantics.
//
// An error configuration encodes its message (all error states with the
// same message merge).
//
// Encoding is the hot loop of exploration (every generated successor is
// keyed), so it appends into a pooled, pre-sized byte buffer rather than
// using fmt machinery; the only allocation per call is the returned Key
// itself.
func (c *Config) Encode() Key { return c.encode(true) }

// EncodeNoCanon is the ablation variant of Encode: heap allocation ids
// are NOT renamed (and unreachable objects are retained), so
// configurations that differ only in allocation numbering or garbage stay
// distinct. Exploration under this key shows what the canonicalization
// buys (DESIGN.md §5).
func (c *Config) EncodeNoCanon() Key { return c.encode(false) }

// Fingerprint hashes the canonical walk without materializing the key:
// the encoder folds each number, byte and string into the two hash lanes
// as it goes, so the call allocates nothing and uses O(1) memory in the
// state size. Two configurations have equal fingerprints iff (up to hash
// collisions) they have equal Encode keys.
func (c *Config) Fingerprint() Fingerprint { return c.fingerprint(true) }

// FingerprintNoCanon is Fingerprint over the EncodeNoCanon walk.
func (c *Config) FingerprintNoCanon() Fingerprint { return c.fingerprint(false) }

func (c *Config) encode(canon bool) Key {
	e := getEncoder(c, canon, false)
	c.encodeBody(e)
	k := Key(e.b)
	putEncoder(e)
	return k
}

func (c *Config) fingerprint(canon bool) Fingerprint {
	e := getEncoder(c, canon, true)
	c.encodeBody(e)
	fp := e.sum()
	putEncoder(e)
	return fp
}

func (c *Config) encodeBody(enc *encoder) {
	if c.Err != "" {
		enc.str("ERR:")
		enc.str(c.Err)
		enc.byte('@')
		enc.num(int64(c.ErrStmt))
		return
	}
	for _, p := range c.Procs {
		enc.byte('P')
		enc.str(p.Path)
		enc.byte(':')
		enc.byte(byte('0' + p.Status))
		enc.num(int64(p.LiveKids))
		for _, f := range p.Frames {
			enc.str("|f")
			enc.num(int64(f.Fn.Index))
			enc.byte(',')
			enc.byte(byte('0' + f.Dest.kind))
			switch f.Dest.kind {
			case retLocal:
				enc.num(int64(f.Dest.slot))
			case retLoc:
				enc.loc(f.Dest.loc)
			}
			for _, bp := range f.Blocks {
				enc.str(";b")
				enc.num(int64(bp.block.NodeID()))
				enc.byte('.')
				enc.num(int64(bp.idx))
			}
			if f.pending != nil {
				enc.str(";!")
				enc.num(int64(f.pending.stmt))
				enc.byte(byte('0' + f.pending.dest.kind))
				switch f.pending.dest.kind {
				case retLocal:
					enc.num(int64(f.pending.dest.slot))
				case retLoc:
					enc.loc(f.pending.dest.loc)
				}
				enc.value(f.pending.val)
			}
			enc.str(";L")
			for _, v := range f.Locals {
				enc.value(v)
			}
		}
		enc.byte('\n')
	}
	enc.str("G:")
	for _, v := range c.Globals {
		enc.value(v)
	}
	// Heap objects already referenced above were renamed and queued; their
	// cells may reference further objects, breadth-first. Without
	// canonicalization every live object is encoded, in raw-id order.
	enc.str("H:")
	if !enc.canon {
		for id := range c.Heap {
			enc.order = append(enc.order, id)
		}
		sort.Ints(enc.order)
	}
	for i := 0; i < len(enc.order); i++ {
		id := enc.order[i]
		obj := c.Heap[id]
		enc.byte('o')
		if !enc.canon {
			enc.num(int64(id))
			enc.byte('@')
		}
		enc.num(int64(obj.Site))
		enc.byte('#')
		enc.num(int64(len(obj.Cells)))
		enc.byte('[')
		for _, v := range obj.Cells {
			enc.value(v)
		}
		enc.byte(']')
	}
}

// Hash lanes: odd multipliers and offsets for the two word rounds. Lane 1
// uses the xxHash64 primes, lane 2 the golden-ratio and splitmix
// multipliers; the lanes also combine word and state differently (add vs
// xor) and rotate by different amounts, so they are different functions
// of the stream.
const (
	lane1Offset = 0xCBF29CE484222325
	lane1Mul    = 0xC2B2AE3D27D4EB4F
	lane1Prime  = 0x9E3779B185EBCA87
	lane2Offset = 0x2545F4914F6CDD1D
	lane2Mul    = 0x9E3779B97F4A7C15
	lane2Prime  = 0xBF58476D1CE4E5B9
)

// --- Pooled encoder --------------------------------------------------------

// maxPooledCap bounds the scratch capacity a pooled encoder may retain,
// so one huge configuration does not pin its buffer forever.
const maxPooledCap = 1 << 16

var encPool = sync.Pool{New: func() any {
	encoderMisses.Add(1)
	return &encoder{b: make([]byte, 0, 512)}
}}

var (
	encoderGets   atomic.Int64
	encoderMisses atomic.Int64
)

// EncoderPoolStats reports process-wide encoder checkouts and pool misses
// (checkouts that had to allocate a fresh encoder). The explorers record
// per-run deltas in their metrics registries as enc_pool_hit/enc_pool_miss.
func EncoderPoolStats() (gets, misses int64) {
	return encoderGets.Load(), encoderMisses.Load()
}

func getEncoder(c *Config, canon, hashOnly bool) *encoder {
	encoderGets.Add(1)
	e := encPool.Get().(*encoder)
	e.cfg = c
	e.canon = canon
	e.hashOnly = hashOnly
	e.b = e.b[:0]
	e.order = e.order[:0]
	e.h1, e.h2 = lane1Offset, lane2Offset
	e.n = 0
	clear(e.rename)
	return e
}

func putEncoder(e *encoder) {
	e.cfg = nil
	if cap(e.b) > maxPooledCap {
		return
	}
	encPool.Put(e)
}

// An encoder runs one canonical walk (Config.encodeBody) in one of two
// modes: it appends the walk to b as the Key's decimal text, or, in
// hashOnly mode, folds it into the two hash lanes word by word.
type encoder struct {
	cfg    *Config
	b      []byte
	rename map[int]int
	order  []int
	canon  bool

	// Hash state (hashOnly mode): the two lanes and the number of words
	// folded into them.
	hashOnly bool
	h1, h2   uint64
	n        int
}

func (e *encoder) byte(c byte) {
	if e.hashOnly {
		e.word(uint64(c))
		return
	}
	e.b = append(e.b, c)
}

// str folds a string of up to seven bytes as one word: its length in the
// low byte, its bytes above. A longer string folds a word holding its
// length over a 0xff marker, then its bytes eight to a word. Either way
// the string's words say where it ends, so the stream stays prefix-free.
func (e *encoder) str(s string) {
	if !e.hashOnly {
		e.b = append(e.b, s...)
		return
	}
	if len(s) < 8 {
		w := uint64(len(s))
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * (i + 1))
		}
		e.word(w)
		return
	}
	e.word(uint64(len(s))<<8 | 0xff)
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * (i & 7))
		if i&7 == 7 {
			e.word(w)
			w = 0
		}
	}
	if len(s)&7 != 0 {
		e.word(w)
	}
}

func (e *encoder) num(n int64) {
	if e.hashOnly {
		e.word(uint64(n))
		return
	}
	e.b = strconv.AppendInt(e.b, n, 10)
}

// word folds one 64-bit word into both lanes. The multiply before the
// rotate carries every input bit upward, the rotate brings the high bits
// down, and the multiply after it spreads them again, so each input bit
// reaches at least 34 bits of each lane, in both halves.
func (e *encoder) word(w uint64) {
	e.h1 = bits.RotateLeft64(e.h1+w*lane1Mul, 31) * lane1Prime
	e.h2 = bits.RotateLeft64(e.h2^w*lane2Mul, 27) * lane2Prime
	e.n++
}

// sum folds the word count in and avalanches each lane (the splitmix64
// finalizer), so short streams still use all 128 bits.
func (e *encoder) sum() Fingerprint {
	return Fingerprint{
		Hi: e.avalanche(e.h1 ^ uint64(e.n)),
		Lo: e.avalanche(e.h2 ^ uint64(e.n)<<32),
	}
}

// avalanche is the splitmix64 finalizer. It is an encoder method so that
// CPU profiles charge it, with the rest of the hashing, to the encoder.
func (*encoder) avalanche(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// canonID returns the canonical id for a heap allocation, assigning the
// next dense id (and queueing the object for cell encoding) on first
// sight. Dangling references (freed objects) keep their raw id, tagged so
// they cannot collide with canonical ids. In no-canon mode raw ids pass
// through untouched.
func (e *encoder) canonID(alloc int) (int, bool) {
	_, live := e.cfg.Heap[alloc]
	if !e.canon {
		return alloc, live
	}
	if e.rename == nil {
		e.rename = make(map[int]int, 8)
	}
	if id, ok := e.rename[alloc]; ok {
		return id, true
	}
	if !live {
		return alloc, false
	}
	id := len(e.order)
	e.rename[alloc] = id
	e.order = append(e.order, alloc)
	return id, true
}

func (e *encoder) loc(l Loc) {
	if l.Space == SpaceGlobal {
		e.byte('g')
		e.num(int64(l.Base))
		return
	}
	id, live := e.canonID(l.Base)
	if live {
		e.byte('h')
	} else {
		e.byte('d') // dangling
	}
	e.num(int64(id))
	e.byte('+')
	e.num(int64(l.Off))
}

func (e *encoder) value(v Value) {
	switch v.Kind {
	case KindUndef:
		e.str("u,")
	case KindInt:
		e.byte('i')
		e.num(v.N)
		e.byte(',')
	case KindPtr:
		e.byte('p')
		e.loc(v.Loc())
		e.byte(',')
	case KindFn:
		e.byte('f')
		e.num(v.N)
		e.byte(',')
	}
}
