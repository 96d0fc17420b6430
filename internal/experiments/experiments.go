package experiments

import "fmt"

// Driver regenerates one figure.
type Driver func(Config) (*Figure, error)

// Registry maps figure IDs to their drivers, in paper order.
func Registry() []struct {
	ID     string
	Driver Driver
} {
	return []struct {
		ID     string
		Driver Driver
	}{
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig5a", Fig5a},
		{"fig5b", Fig5b},
		{"fig5c", Fig5c},
		{"fig6a", Fig6a},
		{"fig6b", Fig6b},
		{"fig6c", Fig6c},
		{"fig7a", Fig7a},
		{"fig7b", Fig7b},
		{"ext-cdc", ExtChunking},
	}
}

// Run regenerates one figure by ID.
func Run(id string, cfg Config) (*Figure, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Driver(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown figure %q", id)
}

// All regenerates every figure in paper order.
func All(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, e := range Registry() {
		cfg.logf("=== running %s ===", e.ID)
		fig, err := e.Driver(cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		out = append(out, fig)
	}
	return out, nil
}
