package dfs

// The I/O counters are read only by this package's tests.

// BytesRead returns cumulative effective bytes read since creation
// (shared across all views).
func (d *DFS) BytesRead() int64 {
	d.st.mu.RLock()
	defer d.st.mu.RUnlock()
	return d.st.bytesRead
}

// BytesWritten returns cumulative effective bytes written since creation
// (shared across all views).
func (d *DFS) BytesWritten() int64 {
	d.st.mu.RLock()
	defer d.st.mu.RUnlock()
	return d.st.bytesWritten
}

// ResetCounters zeroes the I/O counters (between test phases).
func (d *DFS) ResetCounters() {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	d.st.bytesRead, d.st.bytesWritten = 0, 0
}
