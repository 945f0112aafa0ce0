package engine

import (
	"context"
	"fmt"

	"github.com/datastates/mlpoffload/internal/checkpoint"
)

// NewRestored constructs an engine directly in a checkpointed state and
// closes it on any failure. This is the elastic re-shard entry point —
// when a rank dies, the survivor that adopts its shard builds a second
// engine with cfg.Rank set to the dead rank and restores it from that
// rank's manifest on the shared checkpoint tier. Construction skips New's
// initial offload: Restore writes every offloaded subgroup's live key
// anyway, so each object is written once, not twice. The adopted shard's
// subgroups land on the adopter's tiers under the *current* placement
// plan; the background live-migration machinery converges them to the
// planned tiers as training resumes.
//
// cfg must describe the dead rank's geometry and numerics exactly
// (Restore enforces both); the tier *handles* are the adopter's own.
func NewRestored(ctx context.Context, cfg Config, r *checkpoint.Reader, m checkpoint.Manifest) (*Engine, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: re-shard rank %d: %w", cfg.Rank, err)
	}
	if err := e.Restore(ctx, r, m); err != nil {
		e.Close()
		return nil, fmt.Errorf("engine: re-shard rank %d restore step %d: %w", cfg.Rank, m.Step, err)
	}
	return e, nil
}
