package simtime

import "math/bits"

// StableOrder fills ord with the indices 0..len(keys)-1 sorted ascending by
// key, ties in index order, and returns it (resliced, or reallocated when
// its capacity is short). It is the simulator's one stable time order:
//
//   - already-sorted keys return the identity without counting;
//   - a key span below max(8n, 65536) takes one counting sort over the span;
//   - wider spans take an LSD radix sort whose digit width grows with n.
//
// Each radix pass costs n scatters plus a sweep of its 2^d counters, so a
// fixed wide digit drowns small inputs in counter sweeps while a fixed
// narrow one multiplies the passes over large inputs. Sizing d to about
// log2(n) (clamped to [8, 16]) keeps the counters within a small factor of
// n. The span is computed unsigned, so keys anywhere in the int64 range
// order correctly.
//
// scratch is the caller's reusable buffer for the counters and the radix
// ping-pong array; it is grown here when too short.
func StableOrder(ord []int32, scratch *[]int32, keys []Time) []int32 {
	n := len(keys)
	if cap(ord) < n {
		ord = make([]int32, n)
	}
	ord = ord[:n]
	sorted := true
	var kmin, kmax Time
	if n > 0 {
		kmin, kmax = keys[0], keys[0]
	}
	for i := 1; i < n; i++ {
		k := keys[i]
		if k < keys[i-1] {
			sorted = false
		}
		if k < kmin {
			kmin = k
		} else if k > kmax {
			kmax = k
		}
	}
	if sorted {
		for i := range ord {
			ord[i] = int32(i)
		}
		return ord
	}
	base := uint64(kmin)
	width := uint64(kmax) - base // the span less one; never overflows
	if width < uint64(max(8*n, 1<<16)) {
		cnt := grow(scratch, int(width)+2)
		for _, k := range keys {
			cnt[uint64(k)-base+1]++
		}
		for b := 1; b < len(cnt); b++ {
			cnt[b] += cnt[b-1]
		}
		for i, k := range keys {
			b := uint64(k) - base
			ord[cnt[b]] = int32(i)
			cnt[b]++
		}
		return ord
	}

	d := min(max(bits.Len(uint(n)), 8), 16)
	passes := (bits.Len64(width) + d - 1) / d
	radix := 1 << d
	mask := uint64(radix - 1)
	buf := grow(scratch, n+passes*radix)
	tmp, cnt := buf[:n], buf[n:]
	// One sequential sweep histograms every pass's digit.
	for _, k := range keys {
		u := uint64(k) - base
		for p := 0; p < passes; p++ {
			cnt[p*radix+int(u>>(p*d)&mask)]++
		}
	}
	for i := range ord {
		ord[i] = int32(i)
	}
	src, dst := ord, tmp
	first := uint64(keys[0]) - base
	for p := 0; p < passes; p++ {
		c := cnt[p*radix : (p+1)*radix]
		shift := p * d
		if int(c[first>>shift&mask]) == n {
			continue // every key shares this digit: the pass is the identity
		}
		var sum int32
		for b, v := range c {
			c[b] = sum
			sum += v
		}
		for _, i := range src {
			b := (uint64(keys[i]) - base) >> shift & mask
			dst[c[b]] = i
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ord[0] {
		copy(ord, src)
	}
	return ord
}

// grow reslices *buf to n zeroed entries, reallocating when it is short.
func grow(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}
