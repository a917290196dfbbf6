package graph

import (
	"maps"
	"slices"
)

// The copy-on-write tables. Each is a small directory over fixed-size,
// owner-stamped parts: a clone copies the directory and shares every part,
// and a write copies only the part it lands in. Publishing a batch therefore
// costs what the batch writes plus one directory copy per touched table —
// N/4096 page pointers for the slot tables, N/64 shard pointers for an
// index — instead of a copy of the graph.

const (
	slotPageShift = 12
	slotPageSize  = 1 << slotPageShift // slots per page
	slotPageMask  = slotPageSize - 1

	// shardBuckets is the mean number of buckets per index shard above
	// which the shard directory doubles.
	shardBuckets = 64
)

// slots is a slot table: entry i holds the object with ID i+1, nil once it
// is deleted. The owner stamps live beside the pages, not in them, so a
// page is exactly 32 KiB, a size class of its own.
type slots[T any] struct {
	pages  []*[slotPageSize]*T
	owners []uint64 // owners[p]: the generation that may write pages[p]
	n      int      // slots ever allocated
}

// at returns slot i (0 ≤ i < n).
func (t *slots[T]) at(i int) *T { return t.pages[i>>slotPageShift][i&slotPageMask] }

// set stores v in slot i, first copying the page when it is shared.
func (t *slots[T]) set(i int, v *T, owner uint64) {
	p := i >> slotPageShift
	if t.owners[p] != owner {
		c := new([slotPageSize]*T)
		*c = *t.pages[p]
		t.pages[p], t.owners[p] = c, owner
	}
	t.pages[p][i&slotPageMask] = v
}

// push appends v as slot n.
func (t *slots[T]) push(v *T, owner uint64) {
	if t.n&slotPageMask == 0 {
		t.pages = append(t.pages, new([slotPageSize]*T))
		t.owners = append(t.owners, owner)
	}
	t.n++
	t.set(t.n-1, v, owner)
}

// clone returns a table sharing every page with t; only the directory is
// copied.
func (t *slots[T]) clone() slots[T] {
	return slots[T]{pages: slices.Clone(t.pages), owners: slices.Clone(t.owners), n: t.n}
}

// propIndex is one (label, key) hash index: value buckets spread over a
// power-of-two directory of shards by the top bits of a multiplicative hash
// of the key. The index and each shard carry COW stamps; leaf sets carry
// their own.
type propIndex struct {
	owner  uint64
	shards []*indexShard
	shift  uint8 // 64 - log2(len(shards)); a shift of 64 yields 0 in Go
	n      int   // live buckets
}

type indexShard struct {
	owner   uint64
	buckets map[ckey]*idSet
}

// hash is a Fibonacci hash of the key; the index uses its top bits.
func (k ckey) hash() uint64 {
	h := k.num ^ uint64(k.kind)<<56
	if k.b {
		h ^= 1
	}
	return h * 0x9E3779B97F4A7C15
}

// get returns the bucket for k, nil when absent.
func (idx *propIndex) get(k ckey) *idSet {
	return idx.shards[k.hash()>>idx.shift].buckets[k]
}

// mutShard returns the shard k falls in, owned by owner (idx must be).
func (idx *propIndex) mutShard(k ckey, owner uint64) *indexShard {
	i := k.hash() >> idx.shift
	sh := idx.shards[i]
	if sh.owner != owner {
		sh = &indexShard{owner: owner, buckets: maps.Clone(sh.buckets)}
		idx.shards[i] = sh
	}
	return sh
}

// mutBucket returns the (owned) leaf set for k in an owned index, creating
// or copying as needed.
func (idx *propIndex) mutBucket(k ckey, owner uint64) *idSet {
	sh := idx.mutShard(k, owner)
	s := sh.buckets[k]
	if s == nil {
		s = newIDSet(owner)
		sh.buckets[k] = s
		if idx.n++; idx.n > shardBuckets*len(idx.shards) {
			idx.grow(owner)
		}
		return s
	}
	if s.owner != owner {
		s = s.clone(owner)
		sh.buckets[k] = s
	}
	return s
}

// grow doubles the shard directory, rehashing every bucket into new shards
// owned by owner. Each new map is sized to what it receives, so a directory
// that just doubled holds no more slack than one map would.
func (idx *propIndex) grow(owner uint64) {
	shift := idx.shift - 1
	counts := make([]int, 2*len(idx.shards))
	for _, sh := range idx.shards {
		for k := range sh.buckets {
			counts[k.hash()>>shift]++
		}
	}
	shards := make([]*indexShard, len(counts))
	for i, c := range counts {
		shards[i] = &indexShard{owner: owner, buckets: make(map[ckey]*idSet, c)}
	}
	for _, sh := range idx.shards {
		for k, s := range sh.buckets {
			shards[k.hash()>>shift].buckets[k] = s
		}
	}
	idx.shards, idx.shift = shards, shift
}
