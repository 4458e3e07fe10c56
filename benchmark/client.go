package main

import (
	"bytes"
	"hash/crc32"
	"strconv"
)

// client is one closed-loop verifying client. It owns a disjoint slice
// of the key space and a shadow of what it last stored there, so every
// reply can be checked byte for byte; every attempt ends up counted as
// ok or failed. The generator is allocation-free in steady state
// (reused command/expectation buffers, values derived from (seed, key,
// version) instead of stored), so allocs_per_op measures the program,
// not the load generator.
type client struct {
	c    *conn
	app  appKind
	seed uint64
	rng  uint64

	keyLo, keyN int
	preload     int      // keys below this index start as "val:%08d"
	ver         []uint32 // shadow: SET generation per owned key, 0 = never set
	readPct     uint64

	file     string // ftp: served file name, size and checksum
	fileSize int
	fileSum  uint32

	cmd, want, acc []byte

	tagBase uint64         // non-zero: tag request i with tagBase+i+1
	hooks   map[int]func() // run before timed op i (client 0 of a train)

	lat    []int64 // virtual ns per timed op, preallocated
	failed int64
	firstV int64 // virtual ns of the first timed request and last reply
	lastV  int64
}

var crlf = []byte("\r\n")

const valueAlphabet = "abcdefghijklmnopqrstuvwxyz012345"

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (cl *client) next() uint64 {
	cl.rng = splitmix(cl.rng)
	return cl.rng
}

// appendValue derives the value stored by SET generation ver of key:
// 8–56 characters with no whitespace (the servers split on it), except
// that one SET in a hundred stores a large value whose length, 64–127,
// the seed draws once. The large values put the tail of the simulated
// latency distribution (its maximum on the steady workloads) under the
// seed's control, where the body is a constant of the cost model.
func appendValue(dst []byte, seed uint64, key int, ver uint32) []byte {
	x := splitmix(seed ^ uint64(key)<<32 ^ uint64(ver))
	n := 8 + int(x%49)
	if (x>>32)%100 == 0 {
		n = 64 + int(splitmix(seed)%64)
	}
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		dst = append(dst, valueAlphabet[x>>59])
	}
	return dst
}

// appendDigits8 appends key as eight decimal digits, the format of
// kvstore.Preload's "key:%08d" / "val:%08d" entries.
func appendDigits8(dst []byte, key int) []byte {
	for d := 10000000; d > 0; d /= 10 {
		dst = append(dst, byte('0'+key/d%10))
	}
	return dst
}

func appendKey(dst []byte, key int) []byte {
	return appendDigits8(append(dst, "key:"...), key)
}

// appendStored appends what the shadow says key holds; ok is false when
// the key must be absent.
func (cl *client) appendStored(dst []byte, key int) ([]byte, bool) {
	if v := cl.ver[key-cl.keyLo]; v > 0 {
		return appendValue(dst, cl.seed, key, v), true
	}
	if key < cl.preload {
		return appendDigits8(append(dst, "val:"...), key), true
	}
	return dst, false
}

// run executes n operations; timed ones are recorded and may fire hooks.
func (cl *client) run(n int, timed bool) {
	for i := 0; i < n; i++ {
		var tag uint64
		if timed {
			if h := cl.hooks[i]; h != nil {
				h()
			}
			if cl.tagBase != 0 {
				tag = cl.tagBase + uint64(i) + 1
			}
		}
		start := cl.c.now()
		ok := false
		switch cl.app {
		case appKV:
			ok = cl.kvOp(tag)
		case appMC:
			ok = cl.mcOp(tag)
		case appFTP:
			ok = cl.retr(tag)
		}
		end := cl.c.now()
		if !timed {
			if !ok {
				cl.failed++ // a failed warm-up op fails the run too
			}
			continue
		}
		if i == 0 {
			cl.firstV = start
		}
		cl.lastV = end
		cl.lat = append(cl.lat, end-start)
		if !ok {
			cl.failed++
		}
	}
}

// pick chooses the next key and whether to read it.
func (cl *client) pick() (key int, read bool) {
	r := cl.next()
	return cl.keyLo + int(r>>32)%cl.keyN, r%100 < cl.readPct
}

func (cl *client) kvOp(tag uint64) bool {
	key, read := cl.pick()
	cl.cmd, cl.want = cl.cmd[:0], cl.want[:0]
	if read {
		cl.cmd = append(appendKey(append(cl.cmd, "GET "...), key), crlf...)
		// Build "$<len>\r\n<value>\r\n" behind a length placeholder.
		val, ok := cl.appendStored(cl.acc[:0], key)
		cl.acc = val[:0]
		if ok {
			cl.want = append(cl.want, '$')
			cl.want = strconv.AppendInt(cl.want, int64(len(val)), 10)
			cl.want = append(append(append(cl.want, crlf...), val...), crlf...)
		} else {
			cl.want = append(cl.want, "$-1\r\n"...)
		}
		return cl.exchange(tag, respComplete)
	}
	v := cl.ver[key-cl.keyLo] + 1
	cl.cmd = append(appendKey(append(cl.cmd, "SET "...), key), ' ')
	cl.cmd = append(appendValue(cl.cmd, cl.seed, key, v), crlf...)
	cl.want = append(cl.want, "+OK\r\n"...)
	ok := cl.exchange(tag, respComplete)
	cl.ver[key-cl.keyLo] = v
	return ok
}

func (cl *client) mcOp(tag uint64) bool {
	key, read := cl.pick()
	cl.cmd, cl.want = cl.cmd[:0], cl.want[:0]
	if read {
		cl.cmd = append(appendKey(append(cl.cmd, "get "...), key), crlf...)
		val, ok := cl.appendStored(cl.acc[:0], key)
		cl.acc = val[:0]
		if ok {
			cl.want = append(appendKey(append(cl.want, "VALUE "...), key), " 0 "...)
			cl.want = strconv.AppendInt(cl.want, int64(len(val)), 10)
			cl.want = append(append(append(cl.want, crlf...), val...), crlf...)
		}
		cl.want = append(cl.want, "END\r\n"...)
		return cl.exchange(tag, mcGetComplete)
	}
	v := cl.ver[key-cl.keyLo] + 1
	val := appendValue(cl.acc[:0], cl.seed, key, v)
	cl.acc = val[:0]
	cl.cmd = append(appendKey(append(cl.cmd, "set "...), key), " 0 0 "...)
	cl.cmd = strconv.AppendInt(cl.cmd, int64(len(val)), 10)
	cl.cmd = append(append(append(cl.cmd, crlf...), val...), crlf...)
	cl.want = append(cl.want, "STORED\r\n"...)
	ok := cl.exchange(tag, lineComplete)
	cl.ver[key-cl.keyLo] = v
	return ok
}

// exchange sends cl.cmd, reads one framed reply and compares it with
// cl.want. The common case — the whole reply in one read — copies
// nothing.
func (cl *client) exchange(tag uint64, complete func([]byte) bool) bool {
	if !cl.c.write(cl.cmd, tag) {
		return false
	}
	got := cl.c.read()
	if got == nil {
		return false
	}
	if !complete(got) {
		// cl.acc may alias the value scratch; the expectation is already
		// materialised in cl.want, so it is free to reuse.
		cl.acc = append(cl.acc[:0], got...)
		for !complete(cl.acc) {
			more := cl.c.read()
			if more == nil {
				return false
			}
			cl.acc = append(cl.acc, more...)
		}
		got = cl.acc
	}
	return bytes.Equal(got, cl.want)
}

func lineComplete(b []byte) bool { return bytes.HasSuffix(b, crlf) }

// respComplete frames one RESP reply: a CRLF-terminated line, or for
// bulk strings the header plus the announced number of bytes.
func respComplete(b []byte) bool {
	if !bytes.HasSuffix(b, crlf) {
		return false
	}
	if b[0] != '$' {
		return true
	}
	n, i := 0, 1
	for ; b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int(b[i]-'0')
	}
	// "$-1\r\n" (null) and anything malformed are complete as they stand.
	return b[i] != '\r' || len(b) >= i+2+n+2
}

// mcGetComplete frames a memcached get: value blocks end with END; an
// error line stands alone.
func mcGetComplete(b []byte) bool {
	if bytes.HasSuffix(b, []byte("END\r\n")) {
		return true
	}
	return lineComplete(b) && (bytes.HasPrefix(b, []byte("ERROR")) ||
		bytes.HasPrefix(b, []byte("CLIENT_ERROR")) || bytes.HasPrefix(b, []byte("SERVER_ERROR")))
}

// login consumes the banner and authenticates an ftp session.
func (cl *client) login() bool {
	for _, step := range []struct{ send, code string }{
		{"", "220 "}, {"USER anonymous\r\n", "331 "}, {"PASS guest\r\n", "230 "},
	} {
		if step.send != "" && !cl.c.write([]byte(step.send), 0) {
			return false
		}
		got := cl.c.read()
		if !lineComplete(got) || !bytes.HasPrefix(got, []byte(step.code)) {
			return false
		}
	}
	return true
}

var ftpTrailer = []byte("226 Transfer complete.\r\n")

// retr downloads the file once, streaming: the 150 line, exactly
// fileSize bytes (checksummed as they arrive, never accumulated), then
// the 226 line. Scanning cost is linear in the transfer.
func (cl *client) retr(tag uint64) bool {
	cl.cmd = append(append(append(cl.cmd[:0], "RETR "...), cl.file...), crlf...)
	if !cl.c.write(cl.cmd, tag) {
		return false
	}
	head, tail := cl.acc[:0], cl.want[:0]
	headDone, body, sum := false, 0, uint32(0)
	for {
		b := cl.c.read()
		if b == nil {
			return false
		}
		if !headDone {
			i := bytes.IndexByte(b, '\n')
			if i < 0 {
				head = append(head, b...)
				continue
			}
			head = append(head, b[:i+1]...)
			if !bytes.HasPrefix(head, []byte("150 ")) {
				return false // e.g. "550 Failed to open file."
			}
			headDone, b = true, b[i+1:]
		}
		if body < cl.fileSize {
			n := len(b)
			if n > cl.fileSize-body {
				n = cl.fileSize - body
			}
			sum = crc32.Update(sum, crc32.IEEETable, b[:n])
			body, b = body+n, b[n:]
		}
		tail = append(tail, b...)
		if len(tail) >= len(ftpTrailer) {
			cl.acc, cl.want = head[:0], tail[:0]
			return sum == cl.fileSum && bytes.Equal(tail, ftpTrailer)
		}
	}
}

// fileBytes generates the served file's contents from the seed.
func fileBytes(seed uint64, size int) []byte {
	out := make([]byte, size)
	x := splitmix(seed)
	for i := 0; i+8 <= size; i += 8 {
		x = splitmix(x)
		for j := 0; j < 8; j++ {
			out[i+j] = byte(x >> (8 * j))
		}
	}
	return out
}
