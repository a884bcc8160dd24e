package main

import (
	"crypto/sha256"
	"encoding/binary"
	"strconv"
	"syscall"
	"time"
)

// Host speed. The benchmark runs on a few vCPUs of a shared host whose
// speed drifts: a fixed loop of plain Go, with no steal and nothing else
// running, took between 61 and 79 ms per ten-second window over 150 s on
// the 2-vCPU x86-64 host the benchmark was built on, and over hours the
// program ran two to three times as fast in one phase of the host as in
// another. No timing of the
// program can be steadier than that between runs. So the benchmark times
// a fixed reference workload, calibWork, which shares no code with the
// program, in short bursts right before and after each world's measured
// phase and each set-up, and scales what that world timed by
//
//	speed = calibRefUS / (median burst time, in µs)
//
// Times are multiplied by speed and rates divided by it: the end-to-end
// metrics read as on a host on which one burst takes calibRefUS. A change
// to the program moves them as before; a change in the host's speed moves
// the bursts as well and cancels out. The raw figures are in the traced
// run's raw.* metrics, and the speed itself in host.speed.

const (
	calibBursts = 5    // bursts before and after each measured phase
	calibRefUS  = 1000 // a burst's time on the reference host (µs)
)

var calibSink uint32

// calibParts are the parts of a burst; calibWork times each.
var calibParts = []struct {
	name string
	work func()
}{
	{"compute", calibCompute},
	{"maps", calibMaps},
	{"memory", calibMemory},
	{"pages", calibPages},
}

// burst is one calibWork's time per part.
type burst []time.Duration

func (b burst) total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// calibWork is one burst, about 1 ms in all. Its parts load the kinds of
// host work the program does: a dispatch loop over a small word array
// (vm), string-keyed maps, small allocations and hashing (ldl, shmfs,
// server), random access over a 16 MiB array that misses the core's
// caches and TLB (guest memory, the Go heap), and faulting in fresh pages
// (heap growth, new frames). A fifth part, waking a parked thread, was
// tried and left out: over 16 runs of each workload it tracked no
// workload better and made serve_inproc's scaled p50 vary more (largest
// to smallest run 1.40 against 1.13).
func calibWork() burst {
	b := make(burst, len(calibParts))
	for i, p := range calibParts {
		t := time.Now()
		p.work()
		b[i] = time.Since(t)
	}
	return b
}

func calibCompute() {
	var memw [4096]uint32
	acc, x := uint32(1), uint32(7)
	for pc := 0; pc < 160_000; pc++ {
		switch pc & 7 {
		case 0, 4:
			acc += memw[x&4095]
		case 1:
			x = x*1664525 + 1013904223
		case 2:
			memw[(x>>7)&4095] = acc
		case 3, 6:
			acc ^= acc << 3
		case 5:
			acc += x >> 11
		default:
			if acc&1 == 0 {
				x++
			}
		}
	}
	calibSink += acc
}

func calibMaps() {
	m := make(map[string]uint32, 64)
	var key [12]byte
	acc := uint32(0)
	for i := 0; i < 3000; i++ {
		k := strconv.AppendInt(key[:0], int64(i%500), 10)
		m[string(k)] += uint32(i)
		acc += m[string(k[:len(k)/2+1])]
	}
	type node struct {
		next *node
		v    [6]uint32
	}
	var head *node
	for i := 0; i < 2000; i++ {
		head = &node{next: head, v: [6]uint32{acc, uint32(i)}}
	}
	buf := make([]byte, 16384)
	for n := head; n != nil; n = n.next {
		binary.LittleEndian.PutUint32(buf[n.v[1]%4096*4:], n.v[0])
	}
	sum := sha256.Sum256(buf)
	calibSink += binary.LittleEndian.Uint32(sum[:])
}

const calibMemBytes = 16 << 20

// calibMem is mapped outside the Go heap, so that it does not count in
// peak_heap_mb.
var calibMem []byte

func calibMemory() {
	if calibMem == nil {
		m, err := syscall.Mmap(-1, 0, calibMemBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("calibration: " + err.Error())
		}
		calibMem = m
	}
	x := uint32(12345)
	for i := 0; i < 6000; i++ {
		x = x*1664525 + 1013904223
		j := x % (calibMemBytes / 4) * 4
		v := binary.LittleEndian.Uint32(calibMem[j:])
		binary.LittleEndian.PutUint32(calibMem[j:], v+x)
	}
	calibSink += x
}

const calibPageBytes = 256 << 10

func calibPages() {
	m, err := syscall.Mmap(-1, 0, calibPageBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("calibration: " + err.Error())
	}
	for i := 0; i < len(m); i += 4096 {
		m[i] = byte(i)
	}
	if err := syscall.Munmap(m); err != nil {
		panic("calibration: " + err.Error())
	}
}

// calibrate times n bursts.
func calibrate(n int) []burst {
	b := make([]burst, n)
	for i := range b {
		b[i] = calibWork()
	}
	return b
}

// hostSpeed turns the bursts around one measured phase into its speed
// factor.
func hostSpeed(bursts []burst) float64 {
	us := make([]float64, len(bursts))
	for i, b := range bursts {
		us[i] = float64(b.total()) / float64(time.Microsecond)
	}
	return calibRefUS / median(us)
}

// partsUS returns the median time of each part over the bursts (µs).
func partsUS(bursts []burst) []float64 {
	v := make([]float64, len(calibParts))
	for i := range v {
		col := make([]float64, len(bursts))
		for k, b := range bursts {
			col[k] = float64(b[i]) / float64(time.Microsecond)
		}
		v[i] = median(col)
	}
	return v
}
