package kvstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
)

// Degenerate hashes for the tests: the trie must be correct under any of
// them, and each drives a part of it the real hash reaches rarely.
var testHashes = []struct {
	name string
	fn   func(string) uint64
}{
	{"real", hashKey},
	{"constant", func(string) uint64 { return 0x0123456789abcdef }},          // one collision list
	{"low8", func(s string) uint64 { return hashKey(s) & 0xff }},             // many collision lists
	{"high12", func(s string) uint64 { return hashKey(s) &^ (1<<52 - 1) }},   // one root slot, keys part deep down
	{"mid", func(s string) uint64 { return hashKey(s) & (0x3ff<<10 | 0x7) }}, // eight root slots, two levels, then lists
}

// holder is one store of a fork family beside the map it must equal.
// Even keys hold strings and odd keys one-field hashes, so that a write
// through mut reaches the reference an unshared leaf must not share.
type holder struct {
	s   store
	ref map[string]string
}

// storeModel interprets an op script over up to maxHolders holders. The
// model test, the fuzz target and the seed corpus share it.
type storeModel struct {
	hash    func(string) uint64
	holders []*holder
	step    int
}

const maxHolders = 6

func newStoreModel(hash func(string) uint64) *storeModel {
	return &storeModel{hash: hash, holders: []*holder{{ref: map[string]string{}}}}
}

func modelKey(id int) string { return fmt.Sprintf("k%d", id) }

func value(e *entry) string {
	if e.typ == typeHash {
		return e.hash["v"]
	}
	return e.str
}

const (
	opPut = iota
	opMutate
	opDelete
	opGet
	opFork
	opDrop
	opCheck
	opReplace
	opCount
)

// do runs one op on holder hi (modulo the live ones) and key id.
func (m *storeModel) do(op, hi, id int) error {
	m.step++
	h := m.holders[hi%len(m.holders)]
	k := modelKey(id)
	hk := m.hash(k)
	want, present := h.ref[k]
	switch op % opCount {
	case opPut:
		v := fmt.Sprintf("v%d", m.step)
		e := entry{typ: typeString, str: v}
		if id%2 == 1 {
			e = entry{typ: typeHash, hash: map[string]string{"v": v}}
		}
		if got := value(h.s.set(hk, k, e)); got != v {
			return fmt.Errorf("put %s returned an entry holding %q", k, got)
		}
		h.ref[k] = v
	case opMutate:
		e := h.s.edit(hk, k)
		if (e != nil) != present {
			return fmt.Errorf("mut %s: found=%v, want %v", k, e != nil, present)
		}
		if e == nil {
			break
		}
		if e.typ == typeHash {
			e.hash["v"] += "+"
		} else {
			e.str += "+"
		}
		h.ref[k] = want + "+"
	case opDelete:
		if got := h.s.remove(hk, k); got != present {
			return fmt.Errorf("del %s = %v, want %v", k, got, present)
		}
		delete(h.ref, k)
	case opGet:
		e := h.s.find(hk, k)
		if (e != nil) != present || present && value(e) != want {
			return fmt.Errorf("get %s = %v, want %q present=%v", k, e, want, present)
		}
	case opFork, opReplace:
		c := &holder{s: h.s.fork(), ref: make(map[string]string, len(h.ref))}
		for k, v := range h.ref {
			c.ref[k] = v
		}
		if len(m.holders) < maxHolders && op%opCount == opFork {
			m.holders = append(m.holders, c)
		} else {
			// The child takes over another holder's seat — possibly its
			// own parent's: it must outlive whoever it shared with.
			m.holders[id%len(m.holders)] = c
		}
	case opDrop:
		if len(m.holders) > 1 {
			i := hi % len(m.holders)
			m.holders = append(m.holders[:i], m.holders[i+1:]...)
		}
	case opCheck:
		return m.check()
	}
	return nil
}

// check compares every holder with its reference by full iteration.
func (m *storeModel) check() error {
	for i, h := range m.holders {
		if h.s.len() != len(h.ref) {
			return fmt.Errorf("holder %d: len = %d, want %d", i, h.s.len(), len(h.ref))
		}
		seen := 0
		var err error
		h.s.each(func(k string, e *entry) {
			seen++
			if want, ok := h.ref[k]; !ok || value(e) != want {
				err = fmt.Errorf("holder %d: iteration yields %s=%q, want %q present=%v", i, k, value(e), want, ok)
			}
		})
		if err != nil {
			return err
		}
		if seen != len(h.ref) {
			return fmt.Errorf("holder %d: iteration yields %d entries, want %d", i, seen, len(h.ref))
		}
		for k, want := range h.ref {
			if e := h.s.find(m.hash(k), k); e == nil || value(e) != want {
				return fmt.Errorf("holder %d: get %s = %v, want %q", i, k, e, want)
			}
		}
	}
	return nil
}

// runScript interprets a byte script: the first byte picks the hash,
// then every pair is (op | holder<<3, key id).
func runStoreScript(script []byte) error {
	if len(script) == 0 {
		return nil
	}
	m := newStoreModel(testHashes[int(script[0])%len(testHashes)].fn)
	for i := 1; i+1 < len(script); i += 2 {
		if err := m.do(int(script[i]&7), int(script[i]>>3), int(script[i+1])); err != nil {
			return fmt.Errorf("op %d (%#02x %#02x): %v", i/2, script[i], script[i+1], err)
		}
	}
	return m.check()
}

// TestStoreMatchesReference: random put/overwrite/mutate/delete/get/fork
// traffic over a family of up to six stores, each checked against its
// own map at every read and by full iteration at the end.
func TestStoreMatchesReference(t *testing.T) {
	const seeds, steps = 30, 20000
	for seed := 0; seed < seeds; seed++ {
		hash := testHashes[seed%len(testHashes)]
		t.Run(fmt.Sprintf("seed%d-%s", seed, hash.name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			m := newStoreModel(hash.fn)
			keys := 64 << (seed / len(testHashes) % 5) // 64 … 1024: dense overwrites to sparse inserts
			for i := 0; i < steps; i++ {
				op := opGet
				switch r := rng.Intn(100); {
				case r < 30:
					op = opPut
				case r < 45:
					op = opMutate
				case r < 60:
					op = opDelete
				case r < 93:
					op = opGet
				case r < 96:
					op = opFork
				case r < 98:
					op = opReplace
				case r < 99:
					op = opDrop
				default:
					op = opCheck
				}
				if err := m.do(op, rng.Intn(maxHolders), rng.Intn(keys)); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			if err := m.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzStore: op script -> fork family vs reference maps. The seed corpus
// is testdata/fuzz/FuzzStore, replayed by plain `go test`.
func FuzzStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := runStoreScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// depthOf is how many nodes a lookup of hash h walks below the root.
func depthOf(s *store, h uint64) int {
	depth := 0
	n := s.root.slot(h).n
	for shift := uint(rootBits); n != nil && shift < hashBits; shift += nodeBits {
		depth++
		bit := slotBit(h, shift)
		if n.nodemap&bit == 0 {
			return depth
		}
		n = n.nodes[rank(n.nodemap, bit)]
	}
	if n != nil {
		depth++
	}
	return depth
}

// TestStoreFullHashCollisions: keys whose 64-bit hashes are equal live
// in one list below the last hash bit, and that list obeys the same
// sharing rules as the rest of the trie.
func TestStoreFullHashCollisions(t *testing.T) {
	const h = 0xfedcba9876543210
	var s store
	for i := 0; i < 40; i++ {
		s.set(h, modelKey(i), entry{str: modelKey(i)})
	}
	// 10 root bits + 11 levels of 5 (the last one short) + the list.
	if got := depthOf(&s, h); got != 12 {
		t.Fatalf("collision list sits %d nodes below the root, want 12", got)
	}
	if s.find(h, "absent") != nil || s.find(h^1<<63, modelKey(3)) != nil {
		t.Fatal("found a key that is not there")
	}
	c := s.fork()
	for i := 0; i < 40; i += 2 {
		if !c.remove(h, modelKey(i)) {
			t.Fatalf("child: %s missing", modelKey(i))
		}
		s.edit(h, modelKey(i+1)).str = "parent"
	}
	c.set(h, "extra", entry{str: "child"})
	for i := 0; i < 40; i++ {
		pe, ce := s.find(h, modelKey(i)), c.find(h, modelKey(i))
		if pe == nil || (i%2 == 0 && pe.str != modelKey(i)) || (i%2 == 1 && pe.str != "parent") {
			t.Errorf("parent: %s = %v", modelKey(i), pe)
		}
		if (ce != nil) != (i%2 == 1) || ce != nil && ce.str != modelKey(i) {
			t.Errorf("child: %s = %v", modelKey(i), ce)
		}
	}
	if s.len() != 40 || c.len() != 21 || s.find(h, "extra") != nil {
		t.Errorf("len parent %d child %d", s.len(), c.len())
	}
	// Emptying the list dissolves the whole chain above it.
	for i := 1; i < 40; i += 2 {
		c.remove(h, modelKey(i))
	}
	if got := depthOf(&c, h); got != 0 || c.find(h, "extra") == nil {
		t.Errorf("lone survivor sits %d nodes deep, want 0 (in the root)", got)
	}
}

// TestStoreHashSpreadsPreloadKeys: the fixed hash is good enough for the
// keys this repo stores — no lookup of a 50k-key store walks more than
// three nodes, and few walk three.
func TestStoreHashSpreadsPreloadKeys(t *testing.T) {
	s := New(SpecFor("2.0.0", false))
	s.Preload(50000)
	var byDepth [16]int
	s.db.each(func(k string, _ *entry) { byDepth[depthOf(&s.db, hashKey(k))]++ })
	t.Logf("keys by depth: %v", byDepth[:5])
	// A uniform hash puts ~49 keys under each root slot: nearly all sit
	// one or two nodes down.
	if deep := 50000 - byDepth[1] - byDepth[2]; deep > 2500 {
		t.Errorf("%d of 50000 keys sit deeper than two nodes: %v", deep, byDepth[:8])
	}
}

// TestForksRunOnDifferentThreads: a leader and its variants may be
// dispatched by different OS threads (the sharded runtime). Each reads
// everything and writes its own share while the parent does the same;
// `go test -race` is the judge, the final comparison the witness.
func TestForksRunOnDifferentThreads(t *testing.T) {
	const keys, forks = 2000, 4
	parent := preloaded(keys)
	var wg sync.WaitGroup
	work := func(s *Server, id int) {
		defer wg.Done()
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("key:%08d", i)
			if s.db.get(k) == nil {
				t.Errorf("holder %d lost %s", id, k)
			}
			switch i % 5 {
			case 0:
				s.db.mut(k).str = fmt.Sprint(id)
			case 1:
				s.db.put(k, entry{typ: typeHash, hash: map[string]string{"by": fmt.Sprint(id)}})
			case 2:
				s.db.del(k)
			}
		}
		s.Fork() // retire the token mid-flight, as an update would
		s.db.put("mine", entry{str: fmt.Sprint(id)})
	}
	all := []*Server{parent}
	for id := 1; id <= forks; id++ {
		all = append(all, parent.Fork().(*Server))
	}
	wg.Add(len(all))
	for id, s := range all {
		go work(s, id)
	}
	wg.Wait()
	for id, s := range all {
		if got, want := s.DBSize(), keys-keys/5+1; got != want {
			t.Errorf("holder %d: %d keys, want %d", id, got, want)
		}
		for i := 0; i < keys; i++ {
			e := s.db.get(fmt.Sprintf("key:%08d", i))
			var got, want string
			switch {
			case e == nil:
				got = "absent"
			case e.typ == typeHash:
				got = "hash by " + e.hash["by"]
			default:
				got = e.str
			}
			switch i % 5 {
			case 0:
				want = fmt.Sprint(id)
			case 1:
				want = "hash by " + fmt.Sprint(id)
			case 2:
				want = "absent"
			default:
				want = fmt.Sprintf("val:%08d", i)
			}
			if got != want {
				t.Fatalf("holder %d: key %d = %q, want %q", id, i, got, want)
			}
		}
	}
}

// allocated is what f allocates, in bytes and heap objects, with the
// collector held off so that nothing but f moves the counters.
func allocated(f func()) (bytes, objects uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// firstWriteObjects bounds the heap objects of 1 000 first writes after a
// fork of a 50 000-key store: 144 measured (go1.24, amd64), 287 under
// -race, where a malloc per copied child array made 2 224.
const firstWriteObjects = 400

// TestForkCostIsFlat counts, it does not time: a fork allocates the same
// bytes whatever the store holds, and writing after one costs a path,
// not the store — and the path's copies come from the writer's slabs, not
// a malloc each.
func TestForkCostIsFlat(t *testing.T) {
	small, big := preloaded(1000), preloaded(100000)
	var forks [64]*Server
	forkAll := func(s *Server) func() {
		return func() {
			for i := range forks {
				forks[i] = s.Fork().(*Server)
			}
		}
	}
	a, _ := allocated(forkAll(small))
	b, _ := allocated(forkAll(big))
	if a != b {
		t.Errorf("%d forks of 1 000 keys allocate %d bytes, of 100 000 keys %d", len(forks), a, b)
	}

	// What the deep copy this store replaced took: a map of cloned
	// entries, as (*Server).Fork built until PR 18.
	deepCopy, _ := allocated(func() {
		ref := make(map[string]*entry, big.db.len())
		big.db.each(func(k string, e *entry) {
			c := cloneEntry(*e)
			ref[k] = &c
		})
	})
	child := forks[0]
	writes, _ := allocated(func() {
		for i := 0; i < 100; i++ {
			child.db.mut(fmt.Sprintf("key:%08d", i*997)).str = "written"
		}
	})
	// fmt.Sprintf's 100 keys are in there too; they do not matter.
	if writes*20 > deepCopy {
		t.Errorf("100 first writes after a fork allocate %d bytes, a deep copy %d: want under 5%%", writes, deepCopy)
	}
	if v := big.db.get("key:00000997").str; v != "val:00000997" {
		t.Errorf("the parent sees the child's write: %q", v)
	}

	mid := preloaded(50000)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%08d", i*50)
	}
	child = mid.Fork().(*Server)
	_, objects := allocated(func() {
		for _, k := range keys {
			child.db.mut(k).str = "written"
		}
	})
	if objects > firstWriteObjects {
		t.Errorf("1 000 first writes after a fork of 50 000 keys allocate %d objects, want at most %d", objects, firstWriteObjects)
	}
}

// TestStoreOwnedPathsAllocateNothing: reading, and overwriting what this
// store has already written, stay allocation-free — the request path's
// budget (TestServeLoopAllocations) depends on it.
func TestStoreOwnedPathsAllocateNothing(t *testing.T) {
	s := preloaded(5000)
	for _, forked := range []bool{false, true} {
		if forked {
			s = s.Fork().(*Server)
			s.db.put("key:00000042", entry{}) // first write after the fork: not owned yet
		}
		if n := testing.AllocsPerRun(100, func() {
			if s.db.get("key:00000042") == nil || s.db.get("absent") != nil {
				t.Fatal("wrong lookup")
			}
		}); n != 0 {
			t.Errorf("forked=%v: get allocates %v times", forked, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			s.db.put("key:00000042", entry{typ: typeString, str: "again"})
			s.db.mut("key:00000042").str = "and again"
		}); n != 0 {
			t.Errorf("forked=%v: overwriting an owned entry allocates %v times", forked, n)
		}
	}
}

// TestSpareCapacityStaysWithItsNode: a region carved for a node's array
// may have room to spare, and that room is the node's alone. A parent
// fills two nodes whose regions have room left and forks; then both
// sides insert into both nodes in turn, and each must hold exactly its
// own keys.
func TestSpareCapacityStaysWithItsNode(t *testing.T) {
	// Keys of node x sit under root slot 1, those of y under slot 2; the
	// number picks the slot one level down.
	hash := func(key string) uint64 {
		slot, _ := strconv.Atoi(key[1:])
		if key[0] == 'x' {
			return 1 | uint64(slot)<<rootBits
		}
		return 2 | uint64(slot)<<rootBits
	}
	var parent store
	var shared []string
	for i := 0; i < 3; i++ {
		for _, k := range []string{fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)} {
			parent.set(hash(k), k, entry{str: k})
			shared = append(shared, k)
		}
	}
	for _, h := range []uint64{1, 2} {
		if n := parent.root.slot(h).n; n == nil || len(n.leaves) != 3 || cap(n.leaves) == len(n.leaves) {
			t.Fatalf("root slot %d: want a node with 3 leaves and room to spare, got %+v", h, n)
		}
	}
	child := parent.fork()
	var own [2][]string // parent's, child's
	for i := 3; i < 12; i++ {
		side, s := i%2, &parent
		if side == 1 {
			s = &child
		}
		for _, k := range []string{fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)} {
			s.set(hash(k), k, entry{str: k})
			own[side] = append(own[side], k)
		}
	}
	for side, s := range []*store{&parent, &child} {
		want := append(append([]string{}, shared...), own[side]...)
		if s.len() != len(want) {
			t.Errorf("side %d holds %d keys, want %d", side, s.len(), len(want))
		}
		for _, k := range want {
			if e := s.find(hash(k), k); e == nil || e.str != k {
				t.Errorf("side %d: %s = %+v", side, k, e)
			}
		}
		for _, k := range own[1-side] {
			if s.find(hash(k), k) != nil {
				t.Errorf("side %d sees the other side's %s", side, k)
			}
		}
	}
}

// TestDroppedLeavesAreWiped: a deleted entry's slab must not keep its
// key, value and hash map reachable, nor a region its node's array grew
// out of the leaves it held.
func TestDroppedLeavesAreWiped(t *testing.T) {
	var s store
	e := s.put("k", entry{typ: typeHash, hash: map[string]string{"f": "v"}})
	s.del("k")
	if e.hash != nil || e.typ != 0 {
		t.Errorf("deleted owned entry still holds %+v", *e)
	}
	// A shared leaf is somebody else's to keep.
	e = s.put("k", entry{str: "kept"})
	c := s.fork()
	c.del("k")
	if e.str != "kept" || s.get("k") == nil {
		t.Errorf("deleting in the child wiped the parent's leaf: %+v", *e)
	}

	// Two keys one level below root slot 0 fill their node's region;
	// a third moves the array to a bigger one.
	var g store
	g.set(0, "a", entry{})
	g.set(1<<rootBits, "b", entry{})
	old := g.root.slot(0).n.leaves
	if len(old) != cap(old) {
		t.Fatalf("the node's region has room for %d more", cap(old)-len(old))
	}
	g.set(2<<rootBits, "c", entry{})
	for i, l := range old {
		if l != nil {
			t.Errorf("the region the array grew out of still holds leaf %d: %s", i, l.key)
		}
	}
}
