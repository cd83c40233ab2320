package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"cicero/internal/engine"
	"cicero/internal/relation"
)

// ErrUnknownDataset reports a dataset name no tenant is registered
// under; the HTTP tier maps it to 404.
var ErrUnknownDataset = errors.New("serve: unknown dataset")

// Registry hosts the Answerers of N named datasets behind one serving
// surface: the multi-tenant half of the serving layer. Every dataset is
// mounted built (Add) — pre-processing and snapshot mapping happen
// before it is served, never on a voice request — and Get resolves a
// name to its Answerer. Each tenant publishes independently (SwapData),
// so re-summarizing one dataset never disturbs the others. All methods
// are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*Answerer
}

// NewRegistry returns an empty dataset registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*Answerer)}
}

// Add mounts a dataset's Answerer under name. Adding an existing name,
// an empty name or a nil Answerer is an error.
func (r *Registry) Add(name string, a *Answerer) error {
	if name == "" {
		return errors.New("serve: empty dataset name")
	}
	if a == nil {
		return fmt.Errorf("serve: dataset %q added with a nil answerer", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tenants[name]; dup {
		return fmt.Errorf("serve: dataset %q already registered", name)
	}
	r.tenants[name] = a
	return nil
}

// Names lists the registered dataset names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants))
	for n := range r.tenants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get resolves a dataset name to its Answerer; unknown names fail with
// ErrUnknownDataset.
func (r *Registry) Get(name string) (*Answerer, error) {
	r.mu.RLock()
	a := r.tenants[name]
	r.mu.RUnlock()
	if a == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return a, nil
}

// SwapData publishes a new generation — next, and the relation it was
// summarized from — for one dataset and returns the replaced store.
// Other datasets are untouched; in-flight answers on the published
// dataset finish on the generation they loaded (see Answerer.SwapData).
func (r *Registry) SwapData(name string, rel *relation.Relation, next engine.StoreView) (engine.StoreView, error) {
	if rel == nil || next == nil {
		return nil, errors.New("serve: SwapData with a nil relation or store")
	}
	a, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	return a.SwapData(rel, next), nil
}
