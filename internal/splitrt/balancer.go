package splitrt

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// BackendView is the read-only slice of backend state a Balancer sees when
// picking: just enough to balance on, nothing it could mutate.
type BackendView struct {
	Addr     string
	Inflight int
	backend  *poolBackend // the pool's way back from the balancer's choice
}

// Balancer picks which healthy backend serves the next request. Pick
// receives the pool's routing key (network "/" cut layer — the identity of
// the model partition being served, so a consistent balancer routes the
// same partition the same way on every client) and the current healthy
// candidates; it returns an index into cands. Implementations must be safe
// for concurrent use. cands is never empty.
type Balancer interface {
	Pick(key string, cands []BackendView) int
}

// NewRoundRobin returns the default balancer: a strict rotation over the
// healthy set. With backends joining and leaving the rotation index is over
// whatever set is healthy at pick time, which keeps the policy trivially
// correct (if uneven) across membership changes.
func NewRoundRobin() Balancer { return &roundRobin{} }

type roundRobin struct{ n atomic.Uint64 }

func (r *roundRobin) Pick(_ string, cands []BackendView) int {
	return int((r.n.Add(1) - 1) % uint64(len(cands)))
}

// NewLeastInflight returns a balancer that picks the backend with the
// fewest requests currently in flight, breaking ties by rotation. It is
// the right default when backends have heterogeneous speeds: a slow
// backend accumulates in-flight work and organically receives less.
func NewLeastInflight() Balancer { return &leastInflight{} }

type leastInflight struct{ n atomic.Uint64 }

func (l *leastInflight) Pick(_ string, cands []BackendView) int {
	best, min := -1, 0
	start := int(l.n.Add(1)-1) % len(cands)
	for i := 0; i < len(cands); i++ {
		j := (start + i) % len(cands)
		if best == -1 || cands[j].Inflight < min {
			best, min = j, cands[j].Inflight
		}
	}
	return best
}

// NewConsistent returns a rendezvous-hash balancer: every (routing key,
// backend addr) pair gets a stable score and the highest-scoring healthy
// backend wins. A pool's routing key is its one model+cut, so this does not
// balance: it is a stable primary with failover. All of a pool's traffic
// goes to one backend, the same in every pool client sharing the fleet, and
// the next-highest takes it over only while that backend is ejected.
func NewConsistent() Balancer { return consistent{} }

type consistent struct{}

func (consistent) Pick(key string, cands []BackendView) int {
	best, bestScore := 0, uint64(0)
	for i, c := range cands {
		h := fnv.New64a()
		h.Write([]byte(c.Addr))
		h.Write([]byte{0})
		h.Write([]byte(key))
		if s := h.Sum64(); i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// BalancerByName maps a CLI-friendly policy name to a Balancer:
// "roundrobin" (default when name is empty), "least-inflight", or
// "consistent".
func BalancerByName(name string) (Balancer, error) {
	switch name {
	case "", "roundrobin", "round-robin":
		return NewRoundRobin(), nil
	case "least-inflight", "leastinflight":
		return NewLeastInflight(), nil
	case "consistent":
		return NewConsistent(), nil
	}
	return nil, fmt.Errorf("splitrt: unknown balancer %q (want roundrobin, least-inflight, or consistent)", name)
}
