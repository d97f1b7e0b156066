package trace

import (
	"math"
	"strconv"
)

// Digest is a running 64-bit FNV-1a hash, the one hash function behind the
// repository's result identities: Trace.Fingerprint is a loop of Event over
// it, a replay feeds it one completion at a time without building the trace
// (replay.Digest), and the service folds makespans vectors and sweep curves
// through Word. Two results are comparable only when one definition hashed
// both, so there is no second byte loop to keep in step with this one.
//
// A Digest is a value: every step returns the advanced state.
type Digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	// A zero input byte is h ^= 0; h *= prime, so a run of k zero bytes is
	// one multiply by prime^k (mod 2^64) — and the multiply that ends the
	// last non-zero byte's step folds into it. prime6 closes a 3-byte value
	// widened to a word, prime8 a 1-byte one. Untyped constant arithmetic is
	// exact, so masking after each product is the reduction mod 2^64.
	mask64 = 1<<64 - 1
	prime2 = fnvPrime * fnvPrime & mask64
	prime4 = prime2 * prime2 & mask64
	prime6 = prime4 * prime2 & mask64
	prime8 = prime4 * prime4 & mask64
)

// NewDigest returns the empty digest (the FNV-1a offset basis).
func NewDigest() Digest { return fnvOffset }

// NewEventDigest returns the digest of a trace over workers lanes that has
// no events yet: Trace.Fingerprint's starting state.
func NewEventDigest(workers int) Digest {
	return NewDigest().Word(uint64(workers))
}

// Word folds v as eight little-endian bytes.
//
//simlint:hotpath
func (d Digest) Word(v uint64) Digest {
	h := uint64(d)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return Digest(h)
}

// text folds the bytes of s and a 0xff terminator, so that "ab"+"c" and
// "a"+"bc" differ.
//
//simlint:hotpath
func (d Digest) text(s string) Digest {
	h := uint64(d)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0xff
	h *= fnvPrime
	return Digest(h)
}

// Event folds one trace event: worker, class, label, task id and the exact
// bit patterns of the virtual interval, each integer as a word. Worker and
// TaskID are small in every trace this repository produces, so their zero
// high bytes collapse into the closing multiply (see prime6/prime8); a value
// outside the short range — negative included — takes the full Word, which
// computes the same bits.
//
//simlint:hotpath
func (d Digest) Event(e Event) Digest {
	if w := uint64(e.Worker); w < 1<<8 {
		d = Digest((uint64(d) ^ w) * prime8)
	} else {
		d = d.Word(w)
	}
	d = d.text(e.Class).text(e.Label)
	if id := uint64(e.TaskID); id < 1<<24 {
		h := (uint64(d) ^ id&0xff) * fnvPrime
		h = (h ^ id>>8&0xff) * fnvPrime
		d = Digest((h ^ id>>16) * prime6)
	} else {
		d = d.Word(id)
	}
	return d.Word(math.Float64bits(e.Start)).Word(math.Float64bits(e.End))
}

// Sum64 returns the digest's value.
func (d Digest) Sum64() uint64 { return uint64(d) }

// Hex returns the value as 16 lower-case hex digits, the form result
// fingerprints take in job documents and journals.
func (d Digest) Hex() string {
	s := strconv.FormatUint(uint64(d), 16)
	return "0000000000000000"[len(s):] + s
}
