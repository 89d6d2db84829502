package algebra

// KWayHeap is the generic kernel of the k-way ordered merge: a binary
// min-heap of (key, payload) entries. MergeUnion, the set-at-a-time
// node-ID union, is its one caller in the query path (the shard
// coordinator's streaming rank merge it also served is gone with the
// shard layout); the per-layer benchmark probes it directly. Keys are
// uint64 so the compare is one branch with no indirection — a NodeID
// widens losslessly.
//
// The replace-min shape matters for merges: advancing a stream is
// ReplaceMin (one sift), not Pop+Push (two), which is what keeps a
// k-way merge at one sift per element.
type KWayHeap[T any] struct {
	h []kwayEntry[T]
}

type kwayEntry[T any] struct {
	key uint64
	val T
}

// Push appends an entry without restoring heap order; call Init once
// after the initial batch.
func (k *KWayHeap[T]) Push(key uint64, val T) {
	k.h = append(k.h, kwayEntry[T]{key: key, val: val})
}

// Init heapifies after a batch of Push calls.
func (k *KWayHeap[T]) Init() {
	for i := len(k.h)/2 - 1; i >= 0; i-- {
		k.sift(i)
	}
}

// Len is the number of live entries.
func (k *KWayHeap[T]) Len() int { return len(k.h) }

// Min returns the smallest entry without removing it.
func (k *KWayHeap[T]) Min() (uint64, T) { return k.h[0].key, k.h[0].val }

// ReplaceMin substitutes the root entry and restores order: the
// advance-one-stream step of a merge.
func (k *KWayHeap[T]) ReplaceMin(key uint64, val T) {
	k.h[0] = kwayEntry[T]{key: key, val: val}
	k.sift(0)
}

// PopMin removes and returns the smallest entry: the stream-exhausted
// step of a merge.
func (k *KWayHeap[T]) PopMin() (uint64, T) {
	top := k.h[0]
	last := len(k.h) - 1
	k.h[0] = k.h[last]
	var zero kwayEntry[T]
	k.h[last] = zero
	k.h = k.h[:last]
	if last > 0 {
		k.sift(0)
	}
	return top.key, top.val
}

func (k *KWayHeap[T]) sift(i int) {
	h := k.h
	for {
		small := i
		if l := 2*i + 1; l < len(h) && h[l].key < h[small].key {
			small = l
		}
		if r := 2*i + 2; r < len(h) && h[r].key < h[small].key {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
