package main

// The benchmark's own reference computations. Every check compares the
// program's output with one of these or with a property the method must
// have; none of them calls into the code it checks.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	kv "kronvalid"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// arcDigest recomputes the program's arc-stream digest (FNV-1a 64 over
// the little-endian vertex count, arc count and packed arcs) from
// decoded arcs, and checks on the way that the arcs are strictly
// increasing in (u, v) order and inside [0, n): sorted, in range and
// duplicate-free.
type arcDigest struct {
	n, arcs int64
	h       uint64
	pack32  bool
	prev    kv.Arc
	bad     string // first violation of order or range
}

func newArcDigest(n, arcs int64) *arcDigest {
	d := &arcDigest{n: n, h: fnvOffset, pack32: n <= 1<<32, prev: kv.Arc{U: -1, V: -1}}
	d.word(uint64(n))
	d.word(uint64(arcs))
	return d
}

func (d *arcDigest) word(w uint64) {
	h := d.h
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	d.h = h
}

func (d *arcDigest) add(u, v int64) {
	if d.bad == "" {
		if u < 0 || v < 0 || u >= d.n || v >= d.n {
			d.bad = fmt.Sprintf("arc %d (%d,%d) outside [0,%d)", d.arcs, u, v, d.n)
		} else if u < d.prev.U || (u == d.prev.U && v <= d.prev.V) {
			d.bad = fmt.Sprintf("arc %d (%d,%d) not after (%d,%d)", d.arcs, u, v, d.prev.U, d.prev.V)
		}
	}
	d.prev = kv.Arc{U: u, V: v}
	d.arcs++
	if d.pack32 {
		d.word(uint64(uint32(u))<<32 | uint64(uint32(v)))
	} else {
		d.word(uint64(u))
		d.word(uint64(v))
	}
}

// sum returns the digest in the program's hex spelling.
func (d *arcDigest) sum() string { return strconv.FormatUint(d.h, 16) }

// digestBinary feeds 16-byte little-endian (u, v) records into d.
func digestBinary(d *arcDigest, r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<20)
	var rec [16]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("binary arcs: %w", err)
		}
		d.add(int64(binary.LittleEndian.Uint64(rec[:8])), int64(binary.LittleEndian.Uint64(rec[8:])))
	}
}

// digestText feeds "u\tv\n" lines into d.
func digestText(d *arcDigest, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		tab := -1
		for i, c := range line {
			if c == '\t' {
				tab = i
				break
			}
		}
		if tab < 0 {
			return fmt.Errorf("text arcs: line %q has no tab", line)
		}
		u, err1 := parseUint(line[:tab])
		v, err2 := parseUint(line[tab+1:])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("text arcs: bad line %q", line)
		}
		d.add(u, v)
	}
	return sc.Err()
}

func parseUint(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 18 {
		return 0, fmt.Errorf("bad number")
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad number")
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

// digestShards digests the shard files of a WriteShards directory in
// index order and returns their total size in bytes.
func digestShards(d *arcDigest, dir string, m *kv.ShardManifest) (int64, error) {
	var size int64
	for _, s := range m.Shards {
		f, err := os.Open(filepath.Join(dir, s.File))
		if err != nil {
			return 0, err
		}
		fi, err := f.Stat()
		if err == nil {
			size += fi.Size()
			if m.Format == "binary" {
				err = digestBinary(d, f)
			} else {
				err = digestText(d, f)
			}
		}
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.File, err)
		}
	}
	return size, nil
}

// digestCSR digests a CSR graph row by row.
func digestCSR(d *arcDigest, g *kv.CSRGraph) {
	for u := int64(0); u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			d.add(u, v)
		}
	}
}

// binarySink encodes a stream as 16-byte little-endian records into a
// byte slice: the expected body of a binary result download.
type binarySink struct{ buf []byte }

func (s *binarySink) Consume(batch []kv.Arc) error {
	for _, a := range batch {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(a.U))
		s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(a.V))
	}
	return nil
}

func (s *binarySink) Flush() error { return nil }

// simpleTriangles counts the triangles of an undirected factor graph by
// merging sorted neighbor lists over u < v < w, ignoring self loops. It
// is the reference τ the closed forms are checked against.
func simpleTriangles(g *kv.Graph) int64 {
	var tau int64
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		nu := g.Neighbors(u)
		for _, v := range nu {
			if v <= u {
				continue
			}
			nv := g.Neighbors(v)
			i, j := 0, 0
			for i < len(nu) && j < len(nv) {
				switch {
				case nu[i] < nv[j]:
					i++
				case nu[i] > nv[j]:
					j++
				default:
					if nu[i] > v {
						tau++
					}
					i++
					j++
				}
			}
		}
	}
	return tau
}

// undirectedEdges counts the undirected non-loop edges of a factor.
func undirectedEdges(g *kv.Graph) int64 {
	var m int64
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				m++
			}
		}
	}
	return m
}
