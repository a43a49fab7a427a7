package core

import (
	"musketeer/internal/cluster"
	"musketeer/internal/engines"
)

// TransferTime shares the name only; the rule matches the function's
// identity, not its spelling.
func TransferTime(bytes int64) cluster.Seconds { return cluster.Seconds(bytes) }

// Clean: pricing through the engines package's cost function, using the
// cluster package's types, and calling a same-named local function.
func scoreThroughPrice(pull, push int64, mbps float64) cluster.Seconds {
	return engines.Price(pull, push, mbps) + TransferTime(0)
}
