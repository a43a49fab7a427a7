package engines

import "musketeer/internal/cluster"

// Price is the corpus cost function: this file is the one place allowed to
// call cluster.TransferTime [cost-formula], so nothing is reported here.
func Price(pull, push int64, mbps float64) cluster.Seconds {
	return cluster.TransferTime(pull, mbps) + cluster.TransferTime(push, mbps)
}
