// Package cluster is the corpus stand-in for the deployment model; the
// cost-formula rule matches TransferTime by function identity.
package cluster

// Seconds is simulated time.
type Seconds float64

// TransferTime converts a volume and a rate into simulated time.
func TransferTime(bytes int64, mbps float64) Seconds {
	if mbps <= 0 || bytes <= 0 {
		return 0
	}
	return Seconds(float64(bytes) / 1e6 / mbps)
}
