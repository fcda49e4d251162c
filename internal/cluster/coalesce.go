package cluster

import (
	"context"
	"errors"
	"fmt"

	"fvp/internal/coalesce"
	"fvp/internal/simd"
)

// fwdBatcher coalesces concurrent forwards headed to one peer: groups
// arriving within the service's batch window (or until its batch max
// requests pend) are merged into a single {"runs":[...]} POST, so a flood
// of single-spec submits through a non-owner costs the owner one HTTP
// round trip per window instead of one per request. Wait-mode and
// fire-and-forget traffic batch separately — their response timing
// differs by design — hence one batcher per (peer, wait) pair.
type fwdBatcher = coalesce.Batcher[simd.RunRequest, simd.JobStatus]

// refusal carries a peer's non-2xx answer through the coalescer as an
// error. A merged batch the peer refused as a unit (one rider's quota,
// one malformed spec) is re-forwarded per group so each caller gets its
// own verdict; a transport failure goes back to every rider unretried,
// and each caller's handleSubmit falls back to local execution.
type refusal struct{ out *submitOutcome }

func (r *refusal) Error() string { return fmt.Sprintf("cluster: peer answered HTTP %d", r.out.code) }

// forward routes one owner group to its peer, through the coalescer
// when the service batches. ctx only gates this caller's wait — the
// merged round trip itself runs on the background context, because the
// riders belong to different client connections and one hangup must not
// cancel the rest.
func (n *Node) forward(ctx context.Context, owner string, reqs []simd.RunRequest, wait bool) ([]simd.JobStatus, *submitOutcome, error) {
	if window, _ := n.svc.Batching(); window <= 0 {
		return n.forwardSubmit(ctx, n.peers[owner], reqs, wait)
	}
	sts, err := n.fwdFor(owner, wait).Do(ctx, reqs)
	var ref *refusal
	if errors.As(err, &ref) {
		return nil, ref.out, nil
	}
	return sts, nil, err
}

func (n *Node) fwdFor(owner string, wait bool) *fwdBatcher {
	key := owner
	if wait {
		key += "?wait"
	}
	n.fwdMu.Lock()
	defer n.fwdMu.Unlock()
	b := n.fwd[key]
	if b == nil {
		p := n.peers[owner]
		window, max := n.svc.Batching()
		b = &fwdBatcher{
			Window: window,
			Max:    max,
			Submit: func(reqs []simd.RunRequest) ([]simd.JobStatus, error) {
				sts, out, err := n.forwardSubmit(context.Background(), p, reqs, wait)
				if out != nil {
					return nil, &refusal{out}
				}
				return sts, err
			},
			Split: func(err error) bool {
				var ref *refusal
				return errors.As(err, &ref)
			},
		}
		n.fwd[key] = b
	}
	return b
}
