// The content-addressed blob store: JSON values filed under caller-chosen
// keys, written atomically (temp file + rename) so a crash never leaves a
// half-written blob where a complete one is expected. The service keys
// routing results by Key(mode, circuit, width, options) — the ROADMAP
// item 3 result cache and the idempotency key for duplicate submissions —
// and files pathfinder checkpoints under per-job keys.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Key hashes the given chunks into a hex content address. Chunks are
// length-prefixed before hashing so boundary shifts cannot collide
// ("ab","c" never hashes like "a","bc").
func Key(chunks ...[]byte) string {
	h := sha256.New()
	var lb [8]byte
	for _, c := range chunks {
		binary.LittleEndian.PutUint64(lb[:], uint64(len(c)))
		h.Write(lb[:])
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Store is a directory of JSON blobs, one file per key. Safe for
// concurrent use: writes are atomic renames, reads see either the old or
// the new complete blob.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a blob store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path maps a key to its blob file, rejecting anything that could escape
// the store directory.
func (s *Store) path(key string) (string, error) {
	if key == "" || strings.ContainsAny(key, "/\\") || strings.Contains(key, "..") {
		return "", fmt.Errorf("journal: store: invalid key %q", key)
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// Put files v under key, atomically replacing any existing blob.
func (s *Store) Put(key string, v any) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: store: encoding %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return fmt.Errorf("journal: store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("journal: store: %w", err)
	}
	return nil
}

// Get unmarshals the blob under key into v, reporting whether it exists.
func (s *Store) Get(key string, v any) (bool, error) {
	p, err := s.path(key)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("journal: store: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("journal: store: decoding %s: %w", key, err)
	}
	return true, nil
}

// Has reports whether a blob exists under key without reading it.
func (s *Store) Has(key string) bool {
	p, err := s.path(key)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// Delete removes the blob under key (no error if absent).
func (s *Store) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("journal: store: %w", err)
	}
	return nil
}
