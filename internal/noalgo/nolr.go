package noalgo

import (
	"oblivhm/internal/bitint"
	"oblivhm/internal/no"
)

// NO-LR (paper §VI-B): network-oblivious list ranking by list contraction.
// One list node per PE.  Each contraction level colors the current list by
// deterministic coin flipping (point-to-point color exchange), selects an
// independent set color by color (selection notifications block
// neighbours), splices the selected nodes out, and — the NO-IS refinement
// of §VI-B — relocates the survivors so they are evenly distributed across
// the leading PEs before recursing.  Ranks are propagated back through the
// recorded levels.

// noNode is the per-PE list state.
type noNode struct {
	succ, pred int // current-level PE indices; -1 at the ends
	w          int64
	alive      bool
	color      int64
	inS        bool
	blocked    bool
	origSucc   int // succ at removal time (current-level index), for unwind
}

// noLevel snapshots what the unwind phase needs.
type noLevel struct {
	n      int   // list size at this level
	newIdx []int // for survivors: PE index at the next level
	nodes  []noNode
}

const noLRColorRounds = 3

// ListRank computes rank[v] = distance from PE v's node to the end of the
// list.  succ/pred are PE indices with -1 ends; N must be a power of two
// (the prefix-sum compaction pads to the machine size).
func ListRank(w *no.World, succ, pred []int) []int64 {
	return ListRankWeighted(w, succ, pred, nil)
}

// ListRankWeighted ranks with explicit link weights:
// rank(v) = wts[v] + rank(succ(v)), with rank past the end = 0.  A nil wts
// selects unit weights (and zero at the tail), i.e. plain distances.
// Weighted ranking is what the Euler-tour tree computations consume.
func ListRankWeighted(w *no.World, succ, pred []int, wts []int64) []int64 {
	n := w.N
	if !bitint.IsPow2(n) || len(succ) != n || len(pred) != n {
		panic(no.Usagef("noalgo: list rank needs power-of-two N PEs and one node per PE, got N=%d len=%d", n, len(succ)))
	}
	nodes := make([]noNode, n)
	for v := 0; v < n; v++ {
		nodes[v] = noNode{succ: succ[v], pred: pred[v], alive: true}
		if wts != nil {
			nodes[v].w = wts[v]
		} else if succ[v] >= 0 {
			nodes[v].w = 1
		}
	}
	var levels []noLevel
	cur := n

	for cur > 2 {
		colorLevel(w, nodes, cur)
		selectIS(w, nodes, cur)
		splice(w, nodes, cur)
		lv, next := compact(w, nodes, cur)
		levels = append(levels, lv)
		nodes = next
		cur = lv.nSurvivors()
	}

	// Base: rank the remaining <= 2 nodes directly via messages.
	rank := make([]int64, len(nodes))
	baseRank(w, nodes, cur, rank)

	// Unwind.
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		up := make([]int64, lv.n)
		// Survivors fetch their rank from the contracted level.
		w.Step(func(e *no.Env) {
			pe := e.PE()
			if pe < lv.n && lv.nodes[pe].alive && !lv.nodes[pe].inS {
				// rank[newIdx] lives at PE newIdx in the contracted world.
				e.Send(lv.newIdx[pe], 3, uint64(pe))
			}
		})
		w.Step(func(e *no.Env) {
			for _, m := range e.Inbox() {
				e.Send(int(m.Data[0]), 4, uint64(rank[e.PE()]))
			}
		})
		w.Step(func(e *no.Env) {
			for _, m := range e.Inbox() {
				up[e.PE()] = int64(m.Data[0])
			}
		})
		// Removed nodes ask their (surviving) successor for its rank.
		w.Step(func(e *no.Env) {
			pe := e.PE()
			if pe < lv.n && lv.nodes[pe].alive && lv.nodes[pe].inS && lv.nodes[pe].origSucc >= 0 {
				e.Send(lv.nodes[pe].origSucc, 5, uint64(pe))
			}
		})
		w.Step(func(e *no.Env) {
			for _, m := range e.Inbox() {
				if m.Tag == 5 {
					e.Send(int(m.Data[0]), 6, uint64(up[e.PE()]))
				}
			}
		})
		w.Step(func(e *no.Env) {
			for _, m := range e.Inbox() {
				up[e.PE()] = int64(m.Data[0]) + lv.nodes[e.PE()].w
			}
		})
		// Removed tails have rank = w.
		for pe := 0; pe < lv.n; pe++ {
			if lv.nodes[pe].alive && lv.nodes[pe].inS && lv.nodes[pe].origSucc < 0 {
				up[pe] = lv.nodes[pe].w
			}
		}
		rank = up
	}
	out := make([]int64, n)
	copy(out, rank)
	return out
}

func (lv noLevel) nSurvivors() int {
	c := 0
	for pe := 0; pe < lv.n; pe++ {
		if lv.nodes[pe].alive && !lv.nodes[pe].inS {
			c++
		}
	}
	return c
}

// colorLevel runs deterministic coin flipping on the live prefix [0, cur).
func colorLevel(w *no.World, nodes []noNode, cur int) {
	for pe := 0; pe < cur; pe++ {
		nodes[pe].color = int64(pe)
		nodes[pe].inS = false
		nodes[pe].blocked = false
	}
	head, tail := -1, -1
	for pe := 0; pe < cur; pe++ {
		if nodes[pe].pred < 0 {
			head = pe
		}
		if nodes[pe].succ < 0 {
			tail = pe
		}
	}
	for r := 0; r < noLRColorRounds; r++ {
		succColor := make([]int64, cur)
		w.Step(func(e *no.Env) {
			pe := e.PE()
			if pe >= cur {
				return
			}
			// Send own color to the predecessor; the head closes the ring
			// by also serving the tail.
			if p := nodes[pe].pred; p >= 0 {
				e.Send(p, 0, uint64(nodes[pe].color))
			}
			if pe == head {
				e.Send(tail, 0, uint64(nodes[pe].color))
			}
		})
		w.Step(func(e *no.Env) {
			for _, m := range e.Inbox() {
				succColor[e.PE()] = int64(m.Data[0])
			}
		})
		for pe := 0; pe < cur; pe++ {
			cv, cs := uint64(nodes[pe].color), uint64(succColor[pe])
			k := int64(0)
			if cv != cs {
				d := cv ^ cs
				for d&1 == 0 {
					d >>= 1
					k++
				}
			}
			nodes[pe].color = 2*k + int64((cv>>uint64(k))&1)
		}
	}
}

// selectIS processes colors in increasing order; selected nodes notify
// their neighbours, which become blocked (Figure 6 semantics, realised by
// messages instead of duplicate records).
func selectIS(w *no.World, nodes []noNode, cur int) {
	maxColor := int64(0)
	for pe := 0; pe < cur; pe++ {
		if nodes[pe].color > maxColor {
			maxColor = nodes[pe].color
		}
	}
	for j := int64(0); j <= maxColor; j++ {
		jj := j
		w.Step(func(e *no.Env) {
			pe := e.PE()
			if pe >= cur || nodes[pe].color != jj || nodes[pe].blocked {
				return
			}
			nodes[pe].inS = true
			e.Work(1)
			if s := nodes[pe].succ; s >= 0 {
				e.Send(s, 1, 1)
			}
			if p := nodes[pe].pred; p >= 0 {
				e.Send(p, 1, 1)
			}
		})
		w.Step(func(e *no.Env) {
			if len(e.Inbox()) > 0 {
				nodes[e.PE()].blocked = true
			}
		})
	}
}

// splice removes the selected nodes: each sends its bridge data to its
// neighbours.
func splice(w *no.World, nodes []noNode, cur int) {
	w.Step(func(e *no.Env) {
		pe := e.PE()
		if pe >= cur || !nodes[pe].inS {
			return
		}
		nodes[pe].origSucc = nodes[pe].succ
		if p := nodes[pe].pred; p >= 0 {
			e.Send(p, 2, uint64(int64(nodes[pe].succ)), uint64(nodes[pe].w))
		}
		if s := nodes[pe].succ; s >= 0 {
			e.Send(s, 3, uint64(int64(nodes[pe].pred)))
		}
	})
	w.Step(func(e *no.Env) {
		for _, m := range e.Inbox() {
			switch m.Tag {
			case 2:
				nodes[e.PE()].succ = int(int64(m.Data[0]))
				nodes[e.PE()].w += int64(m.Data[1])
			case 3:
				nodes[e.PE()].pred = int(int64(m.Data[0]))
			}
		}
	})
}

// compact relocates the survivors to the leading PEs (even distribution,
// §VI-B) using a prefix sum over survivor flags and two routing
// supersteps; returns the level snapshot and the next level's node state.
func compact(w *no.World, nodes []noNode, cur int) (noLevel, []noNode) {
	flags := make([]uint64, w.N)
	for pe := 0; pe < cur; pe++ {
		if nodes[pe].alive && !nodes[pe].inS {
			flags[pe] = 1
		}
	}
	PrefixSums(w, flags) // exclusive: flags[pe] = new index for survivors
	lv := noLevel{n: cur, newIdx: make([]int, cur), nodes: append([]noNode(nil), nodes[:cur]...)}
	for pe := 0; pe < cur; pe++ {
		lv.newIdx[pe] = int(flags[pe])
	}
	next := make([]noNode, len(nodes))
	// Survivors learn their neighbours' new indices, then move.
	newSucc := make([]int, cur)
	newPred := make([]int, cur)
	w.Step(func(e *no.Env) {
		pe := e.PE()
		if pe >= cur || !nodes[pe].alive || nodes[pe].inS {
			return
		}
		if s := nodes[pe].succ; s >= 0 {
			e.Send(s, 7, uint64(pe), uint64(lv.newIdx[pe]))
		}
		if p := nodes[pe].pred; p >= 0 {
			e.Send(p, 8, uint64(pe), uint64(lv.newIdx[pe]))
		}
	})
	w.Step(func(e *no.Env) {
		pe := e.PE()
		for _, m := range e.Inbox() {
			switch m.Tag {
			case 8: // message from my successor
				newSucc[pe] = int(m.Data[1])
			case 7: // message from my predecessor
				newPred[pe] = int(m.Data[1])
			}
		}
	})
	// Route records to their new PEs.
	w.Step(func(e *no.Env) {
		pe := e.PE()
		if pe >= cur || !nodes[pe].alive || nodes[pe].inS {
			return
		}
		s, p := int64(-1), int64(-1)
		if nodes[pe].succ >= 0 {
			s = int64(newSucc[pe])
		}
		if nodes[pe].pred >= 0 {
			p = int64(newPred[pe])
		}
		e.Send(lv.newIdx[pe], 9, uint64(s), uint64(p), uint64(nodes[pe].w))
	})
	w.Step(func(e *no.Env) {
		for _, m := range e.Inbox() {
			next[e.PE()] = noNode{
				succ:  int(int64(m.Data[0])),
				pred:  int(int64(m.Data[1])),
				w:     int64(m.Data[2]),
				alive: true,
			}
		}
	})
	return lv, next
}

// baseRank ranks a list of at most 2 live nodes.
func baseRank(w *no.World, nodes []noNode, cur int, rank []int64) {
	for pe := 0; pe < cur; pe++ {
		if !nodes[pe].alive {
			continue
		}
		if nodes[pe].succ < 0 {
			rank[pe] = nodes[pe].w
		}
	}
	w.Step(func(e *no.Env) {
		pe := e.PE()
		if pe < cur && nodes[pe].alive && nodes[pe].succ < 0 && nodes[pe].pred >= 0 {
			e.Send(nodes[pe].pred, 0, uint64(rank[pe]))
		}
	})
	w.Step(func(e *no.Env) {
		for _, m := range e.Inbox() {
			rank[e.PE()] = nodes[e.PE()].w + int64(m.Data[0])
		}
	})
}
