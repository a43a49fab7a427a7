package core

import clu "musketeer/internal/cluster"

// scoreByHand carries two seeded violations [cost-formula]: the planner
// prices a candidate with its own copy of the formula — once by calling
// TransferTime (through an aliased import), once by taking it as a function
// value — instead of asking engines.Price, so its estimate can drift from
// what an executed job is charged.
func scoreByHand(pull, push int64, mbps float64) clu.Seconds {
	t := clu.TransferTime(pull, mbps)
	price := clu.TransferTime
	return t + price(push, mbps)
}
