package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// On a shared VM two things move a timing that the program does not: the
// hypervisor takes the processor away (steal), and the processor runs
// slower while a hyperthread sibling or frequency scaling holds it back.
// The benchmark removes the first by timing ops in CPU time, which the
// kernel charges net of steal, and the second by interleaving a fixed
// calibration task and reporting figures at that task's nominal speed: a
// time is divided, and a rate multiplied, by slowdown = calibration time /
// refNominal. A change to the program moves the figures; a change in host
// speed moves the calibration task too and cancels out.
//
// The task calls no code under test and allocates nothing, so the
// program's heap does not feed it. A change that cuts collector work can
// still speed it slightly, by a few percent at most, and so understate that
// change's gain by as much.

// refNominal is the calibration task's time on an unloaded reference host
// (2-vCPU x86-64 VM, Go 1.24).
const refNominal = 150 * time.Microsecond

// refEvery is how many ops run between two calibration tasks.
const refEvery = 50

// refNodes is the size of the calibration graph.
const refNodes = 500

// refGraph is the calibration task's state: a fixed sparse weighted graph
// in compressed rows, and the search's preallocated scratch space. One
// task is a Dijkstra search over it with a binary heap — the
// pointer-chasing, float-comparing inner loop a route search has.
type refGraph struct {
	off  []int32
	to   []int32
	w    []float64
	dist []float64
	heap []refItem
	next int32 // source of the next search
	sink float64
}

type refItem struct {
	node int32
	d    float64
}

func newRefGraph() *refGraph {
	rng := rand.New(rand.NewSource(1))
	adj := make([][]refItem, refNodes)
	link := func(a, b int, w float64) {
		adj[a] = append(adj[a], refItem{int32(b), w})
		adj[b] = append(adj[b], refItem{int32(a), w})
	}
	for i := 0; i < refNodes; i++ {
		link(i, (i+1)%refNodes, 1+rng.Float64())
		link(i, rng.Intn(refNodes), 1+10*rng.Float64())
	}
	g := &refGraph{off: make([]int32, 0, refNodes+1), dist: make([]float64, refNodes)}
	for _, es := range adj {
		g.off = append(g.off, int32(len(g.to)))
		for _, e := range es {
			g.to = append(g.to, e.node)
			g.w = append(g.w, e.d)
		}
	}
	g.off = append(g.off, int32(len(g.to)))
	g.heap = make([]refItem, 0, len(g.to)+1)
	return g
}

// run performs one calibration task and returns its wall time and its
// CPU time.
func (g *refGraph) run() (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	start := time.Now()
	g.search(g.next)
	g.next = (g.next + 7) % refNodes
	return time.Since(start), threadCPU() - c0
}

func (g *refGraph) search(src int32) {
	for i := range g.dist {
		g.dist[i] = -1
	}
	h := append(g.heap[:0], refItem{src, 0})
	for len(h) > 0 {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; { // sift down
			l, m := 2*i+1, i
			if l < len(h) && h[l].d < h[m].d {
				m = l
			}
			if r := l + 1; r < len(h) && h[r].d < h[m].d {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		if g.dist[top.node] >= 0 {
			continue
		}
		g.dist[top.node] = top.d
		for k := g.off[top.node]; k < g.off[top.node+1]; k++ {
			if to := g.to[k]; g.dist[to] < 0 {
				h = append(h, refItem{to, top.d + g.w[k]})
				for i := len(h) - 1; i > 0; { // sift up
					p := (i - 1) / 2
					if h[p].d <= h[i].d {
						break
					}
					h[i], h[p] = h[p], h[i]
					i = p
				}
			}
		}
	}
	g.heap = h
	for _, d := range g.dist {
		g.sink += d
	}
}

// slowdown is the host's slowdown over a set of calibration tasks: their
// mean time over refNominal.
func slowdown(times []time.Duration) float64 {
	return meanDur(times, time.Nanosecond) / float64(refNominal)
}

// threadCPU is the calling thread's CPU time, which the kernel charges net
// of steal. Callers lock their goroutine to its thread around the interval.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU is the CPU time of all the process's threads.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// Cannot fail for these clock IDs on Linux, the only supported host.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
