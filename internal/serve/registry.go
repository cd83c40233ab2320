package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cicero/internal/engine"
	"cicero/internal/relation"
)

// ErrUnknownDataset reports a dataset name no tenant is registered
// under; the HTTP tier maps it to 404.
var ErrUnknownDataset = errors.New("serve: unknown dataset")

// Loader builds a dataset's Answerer on first use: typically a snapshot
// load (milliseconds) with a rebuild-from-raw fallback (minutes). The
// Registry invokes it at most once per load — concurrent Gets share one
// in-flight load — and keeps the result for the life of the process.
type Loader func(ctx context.Context) (*Answerer, error)

// tenant is one named dataset slot.
type tenant struct {
	loader Loader

	// mu guards load completion and inflight; it is held only briefly
	// — never across a loader run — so Get waiters can honor their
	// context.
	mu sync.Mutex
	// inflight is non-nil while a load runs; waiters block on its done
	// channel (or their own ctx) instead of on mu.
	inflight *loadFlight
	loaded   atomic.Pointer[Answerer]
}

// Registry hosts the Answerers of N named datasets behind one serving
// surface: the multi-tenant half of the serving layer. Tenants register
// eagerly (Add) or lazily (Register + Loader); Get resolves a name to
// its live Answerer, loading it on first use, and a loaded Answerer
// stays resident. Each tenant publishes independently (SwapData), so
// re-summarizing one dataset never disturbs the others. All methods are
// safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*tenant
}

// NewRegistry returns an empty dataset registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*tenant)}
}

// Register adds a lazily loaded dataset: loader runs on the first Get.
// Registering an existing name or an empty name is an error.
func (r *Registry) Register(name string, loader Loader) error {
	if loader == nil {
		return fmt.Errorf("serve: dataset %q registered with a nil loader", name)
	}
	return r.insert(name, &tenant{loader: loader})
}

func (r *Registry) insert(name string, t *tenant) error {
	if name == "" {
		return errors.New("serve: empty dataset name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tenants[name]; dup {
		return fmt.Errorf("serve: dataset %q already registered", name)
	}
	r.tenants[name] = t
	return nil
}

// Add registers a dataset with an already-built Answerer (no lazy
// load). Adding an existing name or an empty name is an error.
func (r *Registry) Add(name string, a *Answerer) error {
	if a == nil {
		return fmt.Errorf("serve: dataset %q added with a nil answerer", name)
	}
	t := &tenant{}
	t.loaded.Store(a)
	return r.insert(name, t)
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

// Has reports whether a dataset is registered (loaded or not).
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.tenants[name]
	return ok
}

func (r *Registry) tenant(name string) (*tenant, error) {
	r.mu.RLock()
	t := r.tenants[name]
	r.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return t, nil
}

// loadFlight is one shared in-flight load. a and err are written
// before done closes and read only after, so the channel close is the
// synchronization point.
type loadFlight struct {
	done chan struct{}
	a    *Answerer
	err  error
}

// Get resolves a dataset name to its live Answerer, running the loader
// on first use. Concurrent Gets of an unloaded tenant share one load,
// and every caller — the one that started it included — waits under
// its own context, so a slow loader cannot pin goroutines whose
// clients already gave up. The load itself runs
// detached from any caller's cancellation: it is a shared investment,
// and the caller that happened to trigger it disconnecting must not
// abort it for the others (nor livelock the tenant under steady
// short-deadline traffic). A failed load leaves the tenant unloaded;
// the next Get starts a fresh attempt. The fast path is one atomic
// load.
func (r *Registry) Get(ctx context.Context, name string) (*Answerer, error) {
	t, err := r.tenant(name)
	if err != nil {
		return nil, err
	}
	if a := t.loaded.Load(); a != nil {
		return a, nil
	}
	t.mu.Lock()
	if a := t.loaded.Load(); a != nil { // loaded while we waited
		t.mu.Unlock()
		return a, nil
	}
	f := t.inflight
	if f == nil {
		f = &loadFlight{done: make(chan struct{})}
		t.inflight = f
		go t.load(context.WithoutCancel(ctx), f)
	}
	t.mu.Unlock()
	select {
	case <-f.done:
		if f.err != nil {
			return nil, fmt.Errorf("serve: loading dataset %q: %w", name, f.err)
		}
		return f.a, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// load runs the tenant's loader and publishes the outcome on the
// flight. The publish step runs in a defer and a panicking loader is
// converted into the flight's error, so the in-flight marker can
// never leak (which would wedge the tenant) and a loader bug cannot
// crash the process from this goroutine.
func (t *tenant) load(ctx context.Context, f *loadFlight) {
	defer func() {
		if rec := recover(); rec != nil {
			f.a, f.err = nil, fmt.Errorf("loader panicked: %v", rec)
		}
		t.mu.Lock()
		if f.err == nil && f.a != nil {
			t.loaded.Store(f.a)
		}
		t.inflight = nil
		t.mu.Unlock()
		close(f.done)
	}()
	f.a, f.err = t.loader(ctx)
	if f.err == nil && f.a == nil {
		f.err = errors.New("loader returned nil")
	}
}

// Peek returns the dataset's Answerer only if it is currently loaded;
// it never triggers a load (used by stats and listings).
func (r *Registry) Peek(name string) (*Answerer, bool) {
	t, err := r.tenant(name)
	if err != nil {
		return nil, false
	}
	a := t.loaded.Load()
	return a, a != nil
}

// Generation returns the number of the dataset's live generation: how
// many publishes it has seen. A dataset not loaded yet, or an unknown
// name, reports 0.
func (r *Registry) Generation(name string) uint64 {
	if a, ok := r.Peek(name); ok {
		return a.Generation()
	}
	return 0
}

// SwapData publishes a new generation — next, and the relation it was
// summarized from — for one dataset, loading the tenant first if
// needed, and returns the replaced store. Other datasets are untouched;
// in-flight answers on the published dataset finish on the generation
// they loaded (see Answerer.SwapData).
func (r *Registry) SwapData(ctx context.Context, name string, rel *relation.Relation, next engine.StoreView) (engine.StoreView, error) {
	if rel == nil || next == nil {
		return nil, errors.New("serve: SwapData with a nil relation or store")
	}
	a, err := r.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	return a.SwapData(rel, next), nil
}
