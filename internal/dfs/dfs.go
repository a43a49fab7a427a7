// Package dfs implements the shared storage layer that stands in for HDFS.
//
// Every Musketeer workflow (like the paper's) reads its inputs from the
// shared filesystem and writes its final outputs back; restricted back-ends
// such as Hadoop MapReduce also materialize intermediates here between jobs.
// Files store real encoded relation bytes — the encode/decode path is
// exercised on every job boundary — plus the logical size used by the cost
// model, and the filesystem keeps byte counters so tests can assert how much
// (simulated) I/O a plan performed. Every file is a relation.Writer's
// columnar stream: staged sources (WriteRelation), intermediates, sinks and
// loop state alike, so no job parses or renders text; TSV is parsed only where
// a user hands rows in and rendered only where a user reads them. Sizes are
// canonical: a file is statted and charged at its logical size or at the
// length of its TSV rendering, so nothing above this package sees the stored
// format.
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
	"slices"
	"sort"
	"strings"
	"sync"

	"musketeer/internal/relation"
)

// Stat describes one stored file.
type Stat struct {
	Path string
	// PhysicalBytes is the length of the file's TSV rendering, header
	// included: computed from the rows, never rendered.
	PhysicalBytes int64
	LogicalBytes  int64
	Rows          int
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
}

func (f *file) stat(path string) Stat {
	return Stat{Path: path, PhysicalBytes: f.size, LogicalBytes: f.logical, Rows: f.rows}
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

// WriteRelation stores rel at path, columnar, replacing any previous file.
// The relation's LogicalBytes travels with the file. It is where rows a user
// hands in enter the filesystem, and it stores what rendering rel as TSV and
// parsing that text against rel's schema would read back: a cell whose kind
// differs from its column's is coerced as ParseValue would parse its text.
// What that round trip could not read is refused, naming relation, row and
// column, and nothing is stored: a row of the wrong arity, a cell whose text
// does not parse as its column's kind, and a string cell holding a tab or a
// newline, which the TSV a user reads back has no escape for. rel is only
// read.
func (d *DFS) WriteRelation(path string, rel *relation.Relation) error {
	rows, err := d.textRows(path, rel)
	if err != nil {
		return err
	}
	w := relation.NewColumnarWriter(rel.Schema)
	w.LogicalBytes = rel.LogicalBytes
	w.Append(rows)
	_, err = d.Commit(path, w)
	return err
}

// textRows returns rel's rows as their TSV text would parse back, or the
// error that names the first cell it would not. A row whose text reads back
// otherwise than the writer would store it is replaced, in a copy of the row
// list: one of the wrong arity whose line is empty, where the schema reads an
// empty line as a row (no columns, or one string), and one holding a string
// in a numeric column, which the writer would take for 0. A number in a
// column of the other numeric kind is left as it is: where its text parses,
// the writer's conversion is that parse.
func (d *DFS) textRows(path string, rel *relation.Relation) ([]relation.Row, error) {
	at := func(i int) string {
		return fmt.Sprintf("dfs: write %q: relation %q row %d", d.resolve(path), rel.Name, i)
	}
	var rows []relation.Row // a copy of rel.Rows, once a row is replaced
	put := func(i int, row relation.Row) {
		if rows == nil {
			rows = slices.Clone(rel.Rows)
		}
		rows[i] = row
	}
	cols := rel.Schema.Cols
	var blank relation.Row // the row an empty line reads back as, if the schema has one
	switch {
	case len(cols) == 0:
		blank = relation.Row{}
	case len(cols) == 1 && cols[0].Kind == relation.KindString:
		blank = relation.Row{relation.Str("")}
	}
	for i, row := range rel.Rows {
		if len(row) != len(cols) {
			emptyLine := len(row) == 0 || len(row) == 1 && row[0].Kind == relation.KindString && row[0].S == ""
			if !emptyLine || blank == nil {
				return nil, fmt.Errorf("%s: row arity %d != %d", at(i), len(row), len(cols))
			}
			put(i, blank)
			continue
		}
		copied := false
		for j := range row {
			v, kind := &row[j], cols[j].Kind
			if v.Kind == relation.KindString && strings.ContainsAny(v.S, "\t\n") {
				return nil, fmt.Errorf("%s column %q holds a tab or newline, which TSV cannot store", at(i), cols[j].Name)
			}
			if v.Kind == kind || v.Kind == relation.KindInt && kind == relation.KindFloat {
				continue // an int's text always parses, as the float the writer converts it to
			}
			parsed, err := relation.ParseValue(kind, v.String())
			if err != nil {
				return nil, fmt.Errorf("%s column %q does not read back: %w", at(i), cols[j].Name, err)
			}
			if v.Kind != relation.KindString {
				continue
			}
			if !copied {
				put(i, row.Clone())
				copied = true
			}
			rows[i][j] = parsed
		}
	}
	if rows == nil {
		return rel.Rows, nil
	}
	return rows, nil
}

// Commit stores the relation w has written at path, replacing any previous
// file — whole or, if never called, not at all. The stream's segments, which
// w gives up, are cut into checksummed blocks in place, before the lock is
// taken; only the map store and the accounting run under it.
func (d *DFS) Commit(path string, w *relation.Writer) (Stat, error) {
	if path == "" {
		return Stat{}, fmt.Errorf("dfs: empty path")
	}
	f := &file{blocks: d.split(w.Segments()), size: w.TextBytes(), logical: w.LogicalBytes, rows: w.Rows()}
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
// opened as a Writer's own columnar stream, holding exactly the rows recorded.
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
