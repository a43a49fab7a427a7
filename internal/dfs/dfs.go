// Package dfs implements the shared storage layer that stands in for HDFS.
//
// Every Musketeer workflow (like the paper's) reads its inputs from the
// shared filesystem and writes its final outputs back; restricted back-ends
// such as Hadoop MapReduce also materialize intermediates here between jobs.
// Files store real encoded relation bytes — the encode/decode path is
// exercised on every job boundary — in whichever codec their writer rendered
// them, plus the logical size used by the cost model, and the filesystem keeps
// byte counters so tests can assert how much (simulated) I/O a plan performed.
// Sizes are canonical: a file is statted and charged at its logical size or
// at the length of its TSV rendering, so nothing above this package can tell
// which codec a file is stored in except by asking Stat.
//
// A DFS value is a view onto shared storage. The root view (returned by New)
// sees every file; Namespace derives a scoped view whose paths resolve under
// a prefix, which is how concurrent workflow executions get isolated
// namespaces for their intermediates, outputs, and loop temporaries while
// sharing one physical filesystem (and its datanodes, block placement, and
// I/O accounting).
package dfs

import (
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"musketeer/internal/relation"
)

// Stat describes one stored file.
type Stat struct {
	Path string
	// PhysicalBytes is the length of the file's TSV rendering, header
	// included: the stored length of a TSV file, computed for a columnar one.
	PhysicalBytes int64
	LogicalBytes  int64
	Rows          int
	// Codec is the format the file's writer rendered it in.
	Codec relation.Codec
}

// EffectiveBytes returns the logical size when set, else the physical size.
func (s Stat) EffectiveBytes() int64 {
	if s.LogicalBytes > 0 {
		return s.LogicalBytes
	}
	return s.PhysicalBytes
}

// noSuchFile is the error for a storage key that names no file. It matches
// errors.Is(err, fs.ErrNotExist), so a caller can tell a missing file from
// one that exists but cannot be read.
type noSuchFile string

func (key noSuchFile) Error() string { return fmt.Sprintf("dfs: no such file %q", string(key)) }
func (noSuchFile) Unwrap() error     { return fs.ErrNotExist }

// DFS is a view onto an in-memory distributed-filesystem simulation. Views
// are safe for concurrent use; engines running parallel tasks read blocks
// concurrently, and concurrent workflow executions operate through separate
// namespaced views over the same storage.
type DFS struct {
	st *state
	// prefix scopes every path this view resolves ("" for the root view;
	// otherwise ends in "/").
	prefix string
}

// state is the storage shared by every view derived from one New call.
type state struct {
	mu    sync.RWMutex
	files map[string]*file
	cfg   Config
	// down marks failed datanodes; reads route around them. The map is
	// replaced on every change, so a reader keeps the one it saw.
	down map[int]bool

	// Counters accumulate effective (logical) bytes moved, mirroring the
	// PULL/PUSH accounting of the paper's cost model. They are global
	// across views: a namespaced job's I/O is still cluster I/O.
	bytesRead    int64
	bytesWritten int64
}

// file is one stored file. Everything but blocks is fixed at creation, and
// the block list is replaced, never written in place (see CorruptReplica), so
// a reader that took blocks under the lock may walk them outside it.
type file struct {
	blocks  []block
	size    int64 // length of the TSV rendering (see Stat.PhysicalBytes)
	logical int64
	rows    int
	codec   relation.Codec
}

func (f *file) stat(path string) Stat {
	return Stat{Path: path, PhysicalBytes: f.size, LogicalBytes: f.logical, Rows: f.rows, Codec: f.codec}
}

// New returns an empty filesystem with the default block configuration.
func New() *DFS {
	return NewWithConfig(DefaultConfig())
}

// NewWithConfig returns an empty filesystem with explicit block size,
// replication factor and datanode count.
func NewWithConfig(cfg Config) *DFS {
	return &DFS{st: &state{files: make(map[string]*file), cfg: cfg.normalized(), down: map[int]bool{}}}
}

// Namespace returns a view scoped under prefix: every path the view reads
// or writes resolves to prefix+"/"+path in the underlying storage. Views
// share datanodes, block configuration and I/O counters with their parent;
// nested calls compose prefixes. An empty prefix returns the receiver.
func (d *DFS) Namespace(prefix string) *DFS {
	prefix = strings.Trim(prefix, "/")
	if prefix == "" {
		return d
	}
	return &DFS{st: d.st, prefix: d.prefix + prefix + "/"}
}

// Prefix returns the view's path prefix ("" for the root view).
func (d *DFS) Prefix() string { return strings.TrimSuffix(d.prefix, "/") }

// resolve maps a view-relative path to its storage key.
func (d *DFS) resolve(path string) string { return d.prefix + path }

// WriteRelation encodes rel as TSV and stores it at path, replacing any
// previous file. The relation's LogicalBytes travels with the file. TSV has
// no escape for a tab or a newline, so a string cell holding either is
// refused here, naming the cell, rather than stored as a file no job can
// read back.
func (d *DFS) WriteRelation(path string, rel *relation.Relation) error {
	for i, row := range rel.Rows {
		for j, v := range row {
			if v.Kind == relation.KindString && strings.ContainsAny(v.S, "\t\n") {
				col := fmt.Sprint(j)
				if j < rel.Schema.Arity() {
					col = rel.Schema.Cols[j].Name
				}
				return fmt.Errorf("dfs: write %q: relation %q row %d column %q holds a tab or newline, which TSV cannot store",
					d.resolve(path), rel.Name, i, col)
			}
		}
	}
	w := relation.NewWriter(rel.Schema)
	w.LogicalBytes = rel.LogicalBytes
	w.Append(rel.Rows)
	_, err := d.Commit(path, w)
	return err
}

// Commit stores the relation w has written at path, in w's codec, replacing
// any previous file — whole or, if never called, not at all. The stream, which
// w gives up, is cut into checksummed blocks before the lock is taken; only
// the map store and the accounting run under it.
func (d *DFS) Commit(path string, w *relation.Writer) (Stat, error) {
	if path == "" {
		return Stat{}, fmt.Errorf("dfs: empty path")
	}
	f := &file{blocks: d.split(w.Bytes()), size: w.TextBytes(), logical: w.LogicalBytes, rows: w.Rows(), codec: w.Codec()}
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	d.st.files[d.resolve(path)] = f
	st := f.stat(path)
	d.st.bytesWritten += st.EffectiveBytes()
	return st, nil
}

// ReadRelation opens the file at path (see Open) and decodes it whole into
// a relation named after the (view-relative) path.
func (d *DFS) ReadRelation(path string) (*relation.Relation, error) {
	enc, _, err := d.Open(path)
	if err != nil {
		return nil, err
	}
	rel, err := enc.Materialize()
	if err != nil {
		return nil, fmt.Errorf("dfs: decode %q: %w", d.resolve(path), err)
	}
	return rel, nil
}

// Open accounts a read of the file at path, picks one healthy replica of
// every block (verifying checksums, skipping failed datanodes) and parses the
// header, decoding no row: the caller streams or materializes them from the
// returned relation.Encoded. Commit is the only writer, so the stream is
// opened as a Writer's own, holding exactly the rows recorded.
// Only the accounting and the block-list snapshot run under the filesystem
// lock; concurrent readers checksum and decode without serializing.
func (d *DFS) Open(path string) (*relation.Encoded, Stat, error) {
	key := d.resolve(path)
	d.st.mu.Lock()
	f, ok := d.st.files[key]
	if !ok {
		d.st.mu.Unlock()
		return nil, Stat{}, noSuchFile(key)
	}
	d.st.bytesRead += f.stat(path).EffectiveBytes()
	blocks, down := f.blocks, d.st.down
	d.st.mu.Unlock()
	data, err := verify(key, blocks, down)
	if err != nil {
		return nil, Stat{}, err
	}
	enc, err := relation.Open(path, data, f.rows)
	if err != nil {
		return nil, Stat{}, fmt.Errorf("dfs: decode %q: %w", key, err)
	}
	return enc, f.stat(path), nil
}

// Stat returns metadata for path.
func (d *DFS) Stat(path string) (Stat, error) {
	d.st.mu.RLock()
	defer d.st.mu.RUnlock()
	key := d.resolve(path)
	f, ok := d.st.files[key]
	if !ok {
		return Stat{}, noSuchFile(key)
	}
	return f.stat(path), nil
}

// Exists reports whether path is stored.
func (d *DFS) Exists(path string) bool {
	d.st.mu.RLock()
	defer d.st.mu.RUnlock()
	_, ok := d.st.files[d.resolve(path)]
	return ok
}

// Delete removes path; deleting a missing file is an error so job cleanup
// bugs surface in tests.
func (d *DFS) Delete(path string) error {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	key := d.resolve(path)
	if _, ok := d.st.files[key]; !ok {
		return noSuchFile(key)
	}
	delete(d.st.files, key)
	return nil
}

// Copy duplicates a file's metadata and bytes under a new path without I/O
// accounting (sessions use it to link inputs into a namespace and the loop
// driver uses it to seed iteration state).
func (d *DFS) Copy(from, to string) error {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	fromKey := d.resolve(from)
	f, ok := d.st.files[fromKey]
	if !ok {
		return noSuchFile(fromKey)
	}
	clone := *f
	d.st.files[d.resolve(to)] = &clone
	return nil
}

// List returns the view's stored paths in sorted order: everything for the
// root view, and only (view-relative) paths under the prefix for a
// namespaced view.
func (d *DFS) List() []string {
	d.st.mu.RLock()
	defer d.st.mu.RUnlock()
	paths := make([]string, 0, len(d.st.files))
	for p := range d.st.files {
		if d.prefix != "" {
			if !strings.HasPrefix(p, d.prefix) {
				continue
			}
			p = p[len(d.prefix):]
		}
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

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

// ResetCounters zeroes the I/O counters (between benchmark phases).
func (d *DFS) ResetCounters() {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	d.st.bytesRead, d.st.bytesWritten = 0, 0
}
