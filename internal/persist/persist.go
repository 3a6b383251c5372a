// Package persist gives cmd/mincutd warm restarts: a write-ahead log of
// applied mutation batches plus periodic full-graph checkpoints.
//
// The WAL is a JSON-lines file, one Record per applied batch, fsync'd
// before the new epoch is published — after a crash (SIGKILL included)
// every acknowledged mutation is on disk. Replay tolerates a torn final
// line (a crash mid-append) by stopping there and cutting it off the
// file, so later appends start a fresh line; anything before the tear
// is intact because appends are a single write+fsync.
//
// A checkpoint is the full edge list of the graph at some epoch,
// written to a temporary file and atomically renamed into place, after
// which the WAL is truncated; replay records at or before the
// checkpoint epoch are skipped. Boot therefore costs O(checkpoint
// interval) mutations, not O(total history).
package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Mutation is the wire form of one edge mutation, identical to the
// POST /mutate JSON so WAL files are greppable and replayable by hand.
type Mutation struct {
	Op     string `json:"op"` // "insert" or "delete"
	U      int32  `json:"u"`
	V      int32  `json:"v"`
	Weight int64  `json:"weight,omitempty"`
}

// Record is one applied batch: the epoch it produced and the batch
// itself. Epochs in a healthy WAL are strictly increasing by 1.
type Record struct {
	Epoch     uint64     `json:"epoch"`
	Mutations []Mutation `json:"mutations"`
}

// WAL is an append-only, fsync-per-append mutation log.
type WAL struct {
	f    *os.File
	path string
	w    *bufio.Writer
}

// OpenWAL opens (creating if needed) the log at path for appending.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &WAL{f: f, path: path, w: bufio.NewWriter(f)}, nil
}

// Append durably appends one record: marshal, write one line, flush,
// fsync. Returns only after the record is on disk.
func (w *WAL) Append(rec Record) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Reset truncates the log — called right after a checkpoint has been
// atomically renamed into place, so the discarded records are all
// covered by the checkpoint.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the underlying file.
func (w *WAL) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// ReplayWAL streams the records of the log at path in order. A missing
// file replays zero records. A corrupt line stops the replay at the last
// intact record; a gap in the epoch sequence is reported as an error —
// that is not crash damage but a manipulated or mismatched log. A final
// line without its newline is what a crash mid-append leaves behind:
// Append acknowledges a record only after its whole line is on disk, so
// the torn bytes are not replayed, and they are cut off the file, since
// a record appended after them would land on their line, where no
// replay reaches it. fn errors abort the replay.
func ReplayWAL(path string, fn func(Record) error) (replayed int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	sc.Split(scanTerminatedLines)
	var prev uint64
	var intact int64 // bytes up to the end of the last complete line
	for sc.Scan() {
		line := sc.Bytes()
		if line[len(line)-1] != '\n' {
			// Torn tail from a crash mid-append: everything before it is
			// intact; cut it off and stop here.
			return replayed, truncateSync(path, intact)
		}
		intact += int64(len(line))
		if len(line) == 1 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return replayed, nil // corrupt line: stop at the last intact record
		}
		if replayed > 0 && rec.Epoch != prev+1 {
			return replayed, fmt.Errorf("persist: WAL %s: epoch %d follows %d, want %d", path, rec.Epoch, prev, prev+1)
		}
		if err := fn(rec); err != nil {
			return replayed, err
		}
		prev = rec.Epoch
		replayed++
	}
	return replayed, sc.Err()
}

// scanTerminatedLines is bufio.ScanLines keeping each line's newline, so
// an unterminated final line is told apart from a complete one.
func scanTerminatedLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// truncateSync cuts the file at path to size bytes, durably.
func truncateSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// Edge is one undirected weighted edge of a checkpointed graph.
type Edge struct {
	U      int32 `json:"u"`
	V      int32 `json:"v"`
	Weight int64 `json:"w"`
}

// Checkpoint is a full graph state at an epoch.
type Checkpoint struct {
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    []Edge `json:"edges"`
}

// SaveCheckpoint writes ck to path atomically: stream it to path.tmp,
// fsync, rename. A crash at any point leaves either the old checkpoint
// or the new one, never a torn file. The file holds json.Marshal(ck) and
// a newline, written edge by edge through a fixed-size buffer, so saving
// allocates nothing proportional to the graph.
func SaveCheckpoint(path string, ck Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = writeCheckpoint(f, ck)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// writeCheckpoint writes the bytes of json.Marshal(ck) and a newline to
// w: the fields in struct order, null for nil edges and [] for empty
// ones.
func writeCheckpoint(w io.Writer, ck Checkpoint) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	b := bw.AvailableBuffer()
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, ck.Epoch, 10)
	b = append(b, `,"vertices":`...)
	b = strconv.AppendInt(b, int64(ck.Vertices), 10)
	b = append(b, `,"edges":`...)
	if ck.Edges == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
	}
	bw.Write(b)
	for i, e := range ck.Edges {
		b := bw.AvailableBuffer()
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendInt(b, int64(e.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(e.V), 10)
		b = append(b, `,"w":`...)
		b = strconv.AppendInt(b, e.Weight, 10)
		b = append(b, '}')
		bw.Write(b)
	}
	if ck.Edges != nil {
		bw.WriteByte(']')
	}
	bw.WriteString("}\n")
	return bw.Flush() // bufio keeps the first write error until here
}

// LoadCheckpoint reads the checkpoint at path. ok is false (with a nil
// error) when no checkpoint exists.
func LoadCheckpoint(path string) (ck Checkpoint, ok bool, err error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, err
	}
	if err := json.Unmarshal(buf, &ck); err != nil {
		return Checkpoint{}, false, fmt.Errorf("persist: checkpoint %s: %w", path, err)
	}
	return ck, true, nil
}
