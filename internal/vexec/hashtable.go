package vexec

import "sqalpel/internal/sqlsem"

// This file implements the hash table shared by the hash join, hash
// aggregation and DISTINCT operators: open addressing with linear probing
// over power-of-two slot arrays, 64-bit hashes computed directly over the
// unboxed vector payloads, and dense group ids handed out in insertion
// order — the property that keeps join match order, group output order and
// DISTINCT survivor order bit-identical to the interpreters.
//
// Keys come in three storage modes. Single int-backed keys (int, bool, date)
// and single string keys take typed fast paths that hash the payload value
// without any encoding. Everything else — compound keys, float keys with
// their int/float duality, mixed-kind join sides — is encoded row by row
// into a reusable []byte buffer in the one key encoding of
// sqlsem.Value.AppendKey: kind-class prefixes keep 1 and '1' apart,
// int-valued floats normalize to the integer digits so mixed numeric keys
// still meet, and '|' terminates each key of a compound row. Because
// the typed modes are injective refinements of that encoding, a table can
// migrate mid-stream: when a later batch disagrees with the stored mode
// (an expression key that flips from int to float between batches), the
// stored keys are re-encoded once and the table continues in byte mode.

// keyMode selects the key storage of a hash table.
type keyMode uint8

const (
	modeUnset keyMode = iota
	modeInt           // single int-backed key vector: unboxed int64 keys
	modeStr           // single string key vector: string keys
	modeDict          // single dictionary-coded string key vector: codes as int64 keys
	modeBytes         // compound or mixed keys: row encodings in a byte arena
)

// classWild marks an all-NULL key vector where a key class of the encoding
// (sqlsem.KeyStr, KeyDate, KeyNum) would go: it joins and groups only through
// its NULL rows, so it is compatible with every typed mode.
const classWild byte = 0xff

// nullKeyHash is the slot hash of the NULL key in the typed modes (NULL
// keys hash equal so NULL groups with NULL, mirroring the \x00N encoding).
const nullKeyHash uint64 = 0x9e3779b97f4a7c15

// hashTable maps keys to dense group ids 0..n-1 in first-insertion order.
type hashTable struct {
	mode     keyMode
	intClass byte // sqlsem.KeyNum or sqlsem.KeyDate while mode == modeInt

	// Open addressing: slots holds group id + 1 (0 = empty), hashes the
	// full 64-bit hash of the occupying key so growth never re-hashes and
	// probe misses rarely touch key storage.
	slots  []int32
	hashes []uint64
	mask   int

	// Per-group key storage; exactly one is live according to mode. keyOff
	// has n+1 entries: group g's encoding is arena[keyOff[g]:keyOff[g+1]].
	// modeDict stores dictionary codes in intKeys and decodes them through
	// dict only at migration/merge boundaries; code equality is value
	// equality because the codes of one dictionary are injective.
	intKeys []int64
	strKeys []string
	keyOff  []uint32
	arena   []byte
	dict    *Dictionary // modeDict: the single dictionary the codes index

	nullGroup int32 // typed modes: group id of the NULL key; -1 = none
	n         int
}

// newHashTable returns a table sized for about capHint groups; the mode is
// fixed by the first prepare (or getOrInsert*) call.
func newHashTable(capHint int) *hashTable {
	size := 16
	for size < capHint*2 {
		size *= 2
	}
	return &hashTable{
		slots:     make([]int32, size),
		hashes:    make([]uint64, size),
		mask:      size - 1,
		nullGroup: -1,
	}
}

// newByteKeyTable returns a table pinned to the byte-encoding mode, used
// where keys arrive as scalars of varying kinds (DISTINCT aggregates).
func newByteKeyTable(capHint int) *hashTable {
	ht := newHashTable(capHint)
	ht.mode = modeBytes
	ht.keyOff = append(ht.keyOff, 0)
	return ht
}

// numGroups returns how many distinct keys the table has seen.
func (ht *hashTable) numGroups() int { return ht.n }

// mix64 is the splitmix64 finalizer: the integer-key hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashString is FNV-1a over the string bytes, finalized with mix64 so the
// low slot-index bits depend on every input byte.
func hashString(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return mix64(h)
}

// hashBytes is hashString over a byte slice.
func hashBytes(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return mix64(h)
}

// grow doubles the slot arrays, relocating occupied slots by their stored
// hashes; key storage is untouched.
func (ht *hashTable) grow() {
	oldSlots, oldHashes := ht.slots, ht.hashes
	ht.slots = make([]int32, len(oldSlots)*2)
	ht.hashes = make([]uint64, len(oldSlots)*2)
	ht.mask = len(ht.slots) - 1
	for si, s := range oldSlots {
		if s == 0 {
			continue
		}
		h := oldHashes[si]
		i := int(h) & ht.mask
		for ht.slots[i] != 0 {
			i = (i + 1) & ht.mask
		}
		ht.slots[i] = s
		ht.hashes[i] = h
	}
}

// maybeGrow keeps the load factor under 3/4.
func (ht *hashTable) maybeGrow() {
	if ht.n*4 >= len(ht.slots)*3 {
		ht.grow()
	}
}

// getOrInsertInt returns the group of an int-backed key, creating it on
// first sight; isNew reports creation.
func (ht *hashTable) getOrInsertInt(v int64) (int, bool) {
	return ht.getOrInsertIntH(v, mix64(uint64(v)))
}

// getOrInsertIntH is getOrInsertInt with the key's hash precomputed (the
// partitioned join build reuses the routing pass's hashes).
func (ht *hashTable) getOrInsertIntH(v int64, h uint64) (int, bool) {
	i := int(h) & ht.mask
	for {
		s := ht.slots[i]
		if s == 0 {
			ht.slots[i] = int32(ht.n) + 1
			ht.hashes[i] = h
			ht.intKeys = append(ht.intKeys, v)
			ht.n++
			ht.maybeGrow()
			return ht.n - 1, true
		}
		if ht.hashes[i] == h && ht.intKeys[s-1] == v {
			return int(s - 1), false
		}
		i = (i + 1) & ht.mask
	}
}

// lookupInt returns the group of an int-backed key or -1.
func (ht *hashTable) lookupInt(v int64) int {
	return ht.lookupIntH(v, mix64(uint64(v)))
}

// lookupIntH is lookupInt with the key's hash precomputed.
func (ht *hashTable) lookupIntH(v int64, h uint64) int {
	i := int(h) & ht.mask
	for {
		s := ht.slots[i]
		if s == 0 {
			return -1
		}
		if ht.hashes[i] == h && ht.intKeys[s-1] == v {
			return int(s - 1)
		}
		i = (i + 1) & ht.mask
	}
}

// getOrInsertStr returns the group of a string key, creating it on first
// sight. The string header is retained; its bytes are shared with the
// source vector, which is immutable once published.
func (ht *hashTable) getOrInsertStr(v string) (int, bool) {
	return ht.getOrInsertStrH(v, hashString(v))
}

// getOrInsertStrH is getOrInsertStr with the key's hash precomputed.
func (ht *hashTable) getOrInsertStrH(v string, h uint64) (int, bool) {
	i := int(h) & ht.mask
	for {
		s := ht.slots[i]
		if s == 0 {
			ht.slots[i] = int32(ht.n) + 1
			ht.hashes[i] = h
			ht.strKeys = append(ht.strKeys, v)
			ht.n++
			ht.maybeGrow()
			return ht.n - 1, true
		}
		if ht.hashes[i] == h && ht.strKeys[s-1] == v {
			return int(s - 1), false
		}
		i = (i + 1) & ht.mask
	}
}

// lookupStr returns the group of a string key or -1.
func (ht *hashTable) lookupStr(v string) int {
	return ht.lookupStrH(v, hashString(v))
}

// lookupStrH is lookupStr with the key's hash precomputed.
func (ht *hashTable) lookupStrH(v string, h uint64) int {
	i := int(h) & ht.mask
	for {
		s := ht.slots[i]
		if s == 0 {
			return -1
		}
		if ht.hashes[i] == h && ht.strKeys[s-1] == v {
			return int(s - 1)
		}
		i = (i + 1) & ht.mask
	}
}

// getOrInsertBytes returns the group of an encoded key, copying the bytes
// into the table's arena on first sight. The caller may reuse key.
func (ht *hashTable) getOrInsertBytes(key []byte) (int, bool) {
	return ht.getOrInsertBytesH(key, hashBytes(key))
}

// getOrInsertBytesH is getOrInsertBytes with the key's hash precomputed.
func (ht *hashTable) getOrInsertBytesH(key []byte, h uint64) (int, bool) {
	i := int(h) & ht.mask
	for {
		s := ht.slots[i]
		if s == 0 {
			ht.slots[i] = int32(ht.n) + 1
			ht.hashes[i] = h
			ht.arena = append(ht.arena, key...)
			ht.keyOff = append(ht.keyOff, uint32(len(ht.arena)))
			ht.n++
			ht.maybeGrow()
			return ht.n - 1, true
		}
		if ht.hashes[i] == h && string(ht.arena[ht.keyOff[s-1]:ht.keyOff[s]]) == string(key) {
			return int(s - 1), false
		}
		i = (i + 1) & ht.mask
	}
}

// lookupBytes returns the group of an encoded key or -1.
func (ht *hashTable) lookupBytes(key []byte) int {
	return ht.lookupBytesH(key, hashBytes(key))
}

// lookupBytesH is lookupBytes with the key's hash precomputed.
func (ht *hashTable) lookupBytesH(key []byte, h uint64) int {
	i := int(h) & ht.mask
	for {
		s := ht.slots[i]
		if s == 0 {
			return -1
		}
		if ht.hashes[i] == h && string(ht.arena[ht.keyOff[s-1]:ht.keyOff[s]]) == string(key) {
			return int(s - 1)
		}
		i = (i + 1) & ht.mask
	}
}

// getOrInsertNull returns the NULL-key group of a typed-mode table,
// creating it on first sight. It occupies no slot; key storage gets a
// placeholder so group ids stay aligned.
func (ht *hashTable) getOrInsertNull() (int, bool) {
	if ht.nullGroup >= 0 {
		return int(ht.nullGroup), false
	}
	ht.nullGroup = int32(ht.n)
	if ht.mode == modeStr {
		ht.strKeys = append(ht.strKeys, "")
	} else {
		ht.intKeys = append(ht.intKeys, 0)
	}
	ht.n++
	return int(ht.nullGroup), true
}

// lookupNull returns the NULL-key group of a typed-mode table or -1.
func (ht *hashTable) lookupNull() int {
	if ht.nullGroup >= 0 {
		return int(ht.nullGroup)
	}
	return -1
}

// setMode pins a freshly created table to its first batch's mode; dict is
// the shared dictionary for modeDict and nil otherwise.
func (ht *hashTable) setMode(mode keyMode, class byte, dict *Dictionary) {
	ht.mode = mode
	ht.intClass = class
	ht.dict = dict
	if mode == modeBytes && len(ht.keyOff) == 0 {
		ht.keyOff = append(ht.keyOff, 0)
	}
}

// appendGroupKey appends the byte encoding of group g's key, the bridge
// between the typed storage modes and the byte mode (used by migration and
// by cross-table merges). The trailing '|' separator is included so the
// result matches what encodeRowKey produces for a single-key row.
func (ht *hashTable) appendGroupKey(buf []byte, g int) []byte {
	if int32(g) == ht.nullGroup && ht.mode != modeBytes {
		return append(sqlsem.AppendNullKey(buf), '|')
	}
	switch ht.mode {
	case modeInt:
		return append(sqlsem.AppendIntKey(buf, ht.intClass, ht.intKeys[g]), '|')
	case modeStr:
		return append(sqlsem.AppendStringKey(buf, ht.strKeys[g]), '|')
	case modeDict:
		// decode to the modeStr byte form so dict- and raw-keyed tables
		// produce identical encodings and can merge
		return append(sqlsem.AppendStringKey(buf, ht.dict.Vals[ht.intKeys[g]]), '|')
	default:
		return append(buf, ht.arena[ht.keyOff[g]:ht.keyOff[g+1]]...)
	}
}

// migrateToBytes re-encodes every stored key into the byte arena and
// rebuilds the slot index; group ids are preserved, so payloads attached to
// them stay valid.
func (ht *hashTable) migrateToBytes() {
	if ht.mode == modeBytes {
		return
	}
	arena := make([]byte, 0, ht.n*8)
	keyOff := make([]uint32, 1, ht.n+1)
	for g := 0; g < ht.n; g++ {
		arena = ht.appendGroupKey(arena, g)
		keyOff = append(keyOff, uint32(len(arena)))
	}
	ht.arena, ht.keyOff = arena, keyOff
	ht.intKeys, ht.strKeys = nil, nil
	ht.mode = modeBytes
	ht.dict = nil
	ht.nullGroup = -1
	for i := range ht.slots {
		ht.slots[i] = 0
	}
	for ht.n*4 >= len(ht.slots)*3 {
		ht.slots = make([]int32, len(ht.slots)*2)
		ht.hashes = make([]uint64, len(ht.hashes)*2)
	}
	ht.mask = len(ht.slots) - 1
	for g := 0; g < ht.n; g++ {
		h := hashBytes(ht.arena[ht.keyOff[g]:ht.keyOff[g+1]])
		i := int(h) & ht.mask
		for ht.slots[i] != 0 {
			i = (i + 1) & ht.mask
		}
		ht.slots[i] = int32(g) + 1
		ht.hashes[i] = h
	}
}

// getOrInsertKeyOf inserts the key of group g of another table, the merge
// primitive behind parallel aggregation: thread-local tables fold into one
// global table without re-evaluating any key expression. Typed keys
// transfer directly when the modes agree; any disagreement drops the
// receiving table to byte mode first.
func (ht *hashTable) getOrInsertKeyOf(other *hashTable, g int, buf []byte) (group int, isNew bool, scratch []byte) {
	if ht.mode == modeUnset {
		ht.setMode(other.mode, other.intClass, other.dict)
	}
	compatible := ht.mode == other.mode
	if compatible && ht.mode == modeDict && ht.dict != other.dict {
		// codes of different dictionaries are not comparable
		compatible = false
	}
	if compatible && ht.mode == modeInt && ht.intClass != other.intClass {
		switch {
		case ht.intClass == classWild:
			// Only the NULL group is stored here: adopt the other's class.
			ht.intClass = other.intClass
		case other.intClass == classWild:
			// The other table holds only the NULL group; any class matches.
		default:
			compatible = false
		}
	}
	if !compatible {
		switch {
		case ht.mode == modeInt && ht.intClass == classWild && other.mode == modeDict:
			// Only the NULL group is stored here (int placeholder, same
			// layout modeDict uses): adopt the other's dictionary keying.
			ht.mode, ht.intClass, ht.dict = modeDict, sqlsem.KeyStr, other.dict
			compatible = true
		case ht.mode == modeDict && other.mode == modeInt && other.intClass == classWild:
			// A wildcard table only ever holds the NULL group, which the
			// null branch below transfers without touching key payloads.
			compatible = true
		}
	}
	if compatible {
		if int32(g) == other.nullGroup && other.mode != modeBytes {
			group, isNew = ht.getOrInsertNull()
			return group, isNew, buf
		}
		switch ht.mode {
		case modeInt, modeDict:
			group, isNew = ht.getOrInsertInt(other.intKeys[g])
		case modeStr:
			group, isNew = ht.getOrInsertStr(other.strKeys[g])
		default:
			group, isNew = ht.getOrInsertBytes(other.arena[other.keyOff[g]:other.keyOff[g+1]])
		}
		return group, isNew, buf
	}
	ht.migrateToBytes()
	buf = other.appendGroupKey(buf[:0], g)
	group, isNew = ht.getOrInsertBytes(buf)
	return group, isNew, buf
}

// --- row keying ---------------------------------------------------------------

// keyCoder maps batch rows onto hash-table keys: it fixes the key mode for
// one table plus one set (or, for joins, two sets) of key vectors and owns
// the scratch buffer the byte mode encodes rows into. A keyCoder is a
// value: copies are independent, which is what lets parallel probe workers
// share one read-only table with private scratch space.
type keyCoder struct {
	mode keyMode
	buf  []byte
}

// vecMode classifies one key vector: the mode its kind supports and the
// key class its non-NULL rows encode under.
func vecMode(v *Vector) (keyMode, byte) {
	switch v.Kind {
	case sqlsem.KindInt, sqlsem.KindBool:
		return modeInt, sqlsem.KeyNum
	case sqlsem.KindDate:
		return modeInt, sqlsem.KeyDate
	case sqlsem.KindString:
		return modeStr, sqlsem.KeyStr
	case sqlsem.KindNull:
		// All rows NULL: compatible with any typed mode.
		return modeInt, classWild
	default:
		// Floats carry the int/float duality; only the byte encoding
		// normalizes them against integer keys.
		return modeBytes, 0
	}
}

// jointMode reconciles the key-vector sides of one table (one side for
// grouping and DISTINCT, build plus probe for joins) into a single mode.
// When every string side carries the same dictionary, the mode refines to
// modeDict and the shared dictionary is returned: hashing and equality then
// run on the integer codes. Mixed dictionaries or a raw string side fall
// back to modeStr (StrAt decodes per row), which keeps correctness without
// any cross-dictionary code translation.
func jointMode(sides ...[]*Vector) (keyMode, byte, *Dictionary) {
	mode, class := modeUnset, classWild
	var dict *Dictionary
	dictOK := true
	for _, vecs := range sides {
		if len(vecs) != 1 {
			return modeBytes, 0, nil
		}
		m, c := vecMode(vecs[0])
		if c == classWild {
			continue
		}
		if m == modeStr {
			if d := vecs[0].Dict; d == nil || (dict != nil && d != dict) {
				dictOK = false
			} else {
				dict = d
			}
		}
		if mode == modeUnset {
			mode, class = m, c
			continue
		}
		if m != mode || c != class {
			return modeBytes, 0, nil
		}
	}
	if mode == modeUnset {
		// Every side is all-NULL: any typed mode works, ints are cheapest;
		// the wildcard class keeps the table adoptable by later batches.
		return modeInt, classWild, nil
	}
	if mode == modeStr && dictOK && dict != nil {
		return modeDict, sqlsem.KeyStr, dict
	}
	return mode, class, nil
}

// prepare reconciles the table's storage mode with the key vectors of the
// next batch (or join side pair), migrating the stored keys to the byte
// encoding when they disagree, and returns the coder to use for those rows.
func (ht *hashTable) prepare(sides ...[]*Vector) keyCoder {
	mode, class, dict := jointMode(sides...)
	switch {
	case ht.mode == modeUnset:
		ht.setMode(mode, class, dict)
	case ht.mode == modeStr && mode == modeDict:
		// Raw string keys are stored; dict-coded rows decode through StrAt
		// under the modeStr coder, so nothing needs to migrate.
	case ht.mode == modeDict && mode == modeDict && ht.dict != dict:
		ht.migrateToBytes()
	case ht.mode != mode:
		ht.migrateToBytes()
	case mode == modeInt && ht.intClass != class:
		switch {
		case ht.intClass == classWild:
			// The stored keys are all NULL: adopt the batch's class.
			ht.intClass = class
		case class == classWild:
			// The batch is all NULL: compatible with any stored class.
		default:
			ht.migrateToBytes()
		}
	}
	return keyCoder{mode: ht.mode}
}

// encodeRowKey appends the byte encoding of row i of the key vectors: one
// kind-prefixed key per vector, each terminated by '|' — byte for byte the
// interpreters' row keys.
func encodeRowKey(buf []byte, vecs []*Vector, i int) []byte {
	for _, v := range vecs {
		buf = appendVecKey(buf, v, i)
		buf = append(buf, '|')
	}
	return buf
}

// appendVecKey appends the hash-key encoding of row i of the vector — what
// v.At(i).AppendKey(buf) would, without boxing the row.
func appendVecKey(buf []byte, v *Vector, i int) []byte {
	if v.IsNull(i) {
		return sqlsem.AppendNullKey(buf)
	}
	switch v.Kind {
	case sqlsem.KindString:
		return sqlsem.AppendStringKey(buf, v.StrAt(i))
	case sqlsem.KindDate:
		return sqlsem.AppendIntKey(buf, sqlsem.KeyDate, v.Ints[i])
	case sqlsem.KindInt, sqlsem.KindBool:
		return sqlsem.AppendIntKey(buf, sqlsem.KeyNum, v.Ints[i])
	case sqlsem.KindFloat:
		if v.IsInt != nil && v.IsInt[i] {
			return sqlsem.AppendIntKey(buf, sqlsem.KeyNum, v.Ints[i])
		}
		return sqlsem.AppendFloatKey(buf, v.Floats[i])
	}
	return buf
}

// getOrInsert maps row i of the key vectors to its group, creating the
// group on first sight.
func (kc *keyCoder) getOrInsert(ht *hashTable, vecs []*Vector, i int) (int, bool) {
	switch kc.mode {
	case modeInt:
		if vecs[0].IsNull(i) {
			return ht.getOrInsertNull()
		}
		return ht.getOrInsertInt(vecs[0].Ints[i])
	case modeDict:
		if vecs[0].IsNull(i) {
			return ht.getOrInsertNull()
		}
		return ht.getOrInsertInt(int64(vecs[0].Codes[i]))
	case modeStr:
		if vecs[0].IsNull(i) {
			return ht.getOrInsertNull()
		}
		return ht.getOrInsertStr(vecs[0].StrAt(i))
	default:
		kc.buf = encodeRowKey(kc.buf[:0], vecs, i)
		return ht.getOrInsertBytes(kc.buf)
	}
}

// lookup maps row i of the key vectors to its group or -1. It never
// mutates the table, so concurrent lookups against one table are safe as
// long as each goroutine uses its own coder.
func (kc *keyCoder) lookup(ht *hashTable, vecs []*Vector, i int) int {
	switch kc.mode {
	case modeInt:
		if vecs[0].IsNull(i) {
			return ht.lookupNull()
		}
		return ht.lookupInt(vecs[0].Ints[i])
	case modeDict:
		if vecs[0].IsNull(i) {
			return ht.lookupNull()
		}
		return ht.lookupInt(int64(vecs[0].Codes[i]))
	case modeStr:
		if vecs[0].IsNull(i) {
			return ht.lookupNull()
		}
		return ht.lookupStr(vecs[0].StrAt(i))
	default:
		kc.buf = encodeRowKey(kc.buf[:0], vecs, i)
		return ht.lookupBytes(kc.buf)
	}
}

// hash returns the partition hash of row i of the key vectors: equal keys
// hash equal across the build and probe sides of a join, which is what
// routes them to the same partition of a partitioned build. In byte mode
// the row's encoding stays in kc.buf for lookupHashed to reuse.
func (kc *keyCoder) hash(vecs []*Vector, i int) uint64 {
	switch kc.mode {
	case modeInt:
		if vecs[0].IsNull(i) {
			return nullKeyHash
		}
		return mix64(uint64(vecs[0].Ints[i]))
	case modeDict:
		if vecs[0].IsNull(i) {
			return nullKeyHash
		}
		return mix64(uint64(vecs[0].Codes[i]))
	case modeStr:
		if vecs[0].IsNull(i) {
			return nullKeyHash
		}
		return hashString(vecs[0].StrAt(i))
	default:
		kc.buf = encodeRowKey(kc.buf[:0], vecs, i)
		return hashBytes(kc.buf)
	}
}

// getOrInsertHashed is getOrInsert with the row's hash precomputed by any
// coder's hash (possibly another worker's during partition routing). NULL
// rows route to the typed null group regardless of h; byte mode re-encodes
// the row (the encoding may have been produced by a different coder) but
// skips re-hashing it.
func (kc *keyCoder) getOrInsertHashed(ht *hashTable, vecs []*Vector, i int, h uint64) (int, bool) {
	switch kc.mode {
	case modeInt:
		if vecs[0].IsNull(i) {
			return ht.getOrInsertNull()
		}
		return ht.getOrInsertIntH(vecs[0].Ints[i], h)
	case modeDict:
		if vecs[0].IsNull(i) {
			return ht.getOrInsertNull()
		}
		return ht.getOrInsertIntH(int64(vecs[0].Codes[i]), h)
	case modeStr:
		if vecs[0].IsNull(i) {
			return ht.getOrInsertNull()
		}
		return ht.getOrInsertStrH(vecs[0].StrAt(i), h)
	default:
		kc.buf = encodeRowKey(kc.buf[:0], vecs, i)
		return ht.getOrInsertBytesH(kc.buf, h)
	}
}

// lookupHashed is lookup with the row's hash precomputed. h must come from
// kc.hash(vecs, i) on this same coder with no intervening coder calls: in
// byte mode the row encoding still sitting in kc.buf is reused, so a probe
// row is encoded exactly once.
func (kc *keyCoder) lookupHashed(ht *hashTable, vecs []*Vector, i int, h uint64) int {
	switch kc.mode {
	case modeInt:
		if vecs[0].IsNull(i) {
			return ht.lookupNull()
		}
		return ht.lookupIntH(vecs[0].Ints[i], h)
	case modeDict:
		if vecs[0].IsNull(i) {
			return ht.lookupNull()
		}
		return ht.lookupIntH(int64(vecs[0].Codes[i]), h)
	case modeStr:
		if vecs[0].IsNull(i) {
			return ht.lookupNull()
		}
		return ht.lookupStrH(vecs[0].StrAt(i), h)
	default:
		return ht.lookupBytesH(kc.buf, h)
	}
}
