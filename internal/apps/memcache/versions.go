package memcache

import (
	"fmt"
	"time"

	"mvedsua/internal/dsu"
)

// DefaultPerItemXform is the per-item virtual cost of the state
// transformation (heap traversal).
const DefaultPerItemXform = 4 * time.Microsecond

// UpdateOpts injects the §6.2 fault classes into a Memcached update.
type UpdateOpts struct {
	// BreakXform makes the transformation fail outright.
	BreakXform bool
	// UseAfterFree reproduces the paper's latent Kitsune update bug: the
	// transformation frees memory LibEvent still references; the updated
	// process crashes later, once enough clients are connected.
	UseAfterFree bool
	// PerItemXform overrides the per-item transformation cost.
	PerItemXform time.Duration
}

// Update builds the dsu.Version for from→to. As in the paper (§5.3), no
// memcached update needs DSL rules: the command set and syscall sequences
// are unchanged across 1.2.2 → 1.2.4.
func Update(from, to string, opts UpdateOpts) *dsu.Version {
	idx := func(v string) int {
		for i, name := range Versions {
			if name == v {
				return i
			}
		}
		return -1
	}
	fi, ti := idx(from), idx(to)
	if fi < 0 || ti < 0 || ti != fi+1 {
		panic(fmt.Sprintf("memcache: unsupported update %s -> %s", from, to))
	}
	perItem := opts.PerItemXform
	if perItem == 0 {
		perItem = DefaultPerItemXform
	}
	return &dsu.Version{
		Name: to,
		Xform: func(old dsu.App) (dsu.App, error) {
			if opts.BreakXform {
				return nil, fmt.Errorf("xform %s->%s: event base relocation failed", from, to)
			}
			o, ok := old.(*Server)
			if !ok {
				return nil, fmt.Errorf("xform %s->%s: unexpected app %T", from, to, old)
			}
			n := o.Fork().(*Server)
			n.spec = SpecFor(to, o.spec.Workers)
			if opts.UseAfterFree {
				// The buggy transformer freed live LibEvent allocations;
				// the damage surfaces later, under load (§6.2).
				for _, w := range n.workers {
					w.base.Corrupt()
				}
			}
			return n, nil
		},
		XformCost: func(old dsu.App) time.Duration {
			o, ok := old.(*Server)
			if !ok {
				return 0
			}
			return time.Duration(len(o.db)) * perItem
		},
	}
}
